package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/types"
)

// trickyStrings exercise every branch of the string codec: HTML-escaped
// bytes, the short escapes, other control bytes, DEL, multi-byte runes,
// U+2028/U+2029 and invalid UTF-8.
var trickyStrings = []string{
	"",
	"plain ascii",
	"<a href=\"x\">&amp;</a>",
	"quote \" backslash \\ slash /",
	"\b\f\n\r\t\x00\x01\x1f\x7f",
	"é ü 漢字 😀",
	"line\u2028para\u2029end",
	"bad \xff utf8 \xc3( \xed\xa0\x80 tail",
	"RV_bytes(\"\\x00\\n\")",
}

// syntheticRecords covers every field of Record, omitempty on and off.
func syntheticRecords() []Record {
	recs := []Record{codecTestRecord(), {Key: "k", Name: "n", Accepted: true, Checked: "c"}}
	for i, s := range trickyStrings {
		recs = append(recs, Record{
			Key: s, Name: s, Accepted: i%2 == 0,
			Errors:    []RecordError{{Line: -i, Observed: s, Allowed: []string{s, "EPERM"}}, {Line: 1 << 40, Observed: s}},
			Steps:     i,
			MaxStates: -1 << 62, TauExpansions: 1<<62 + i, SumStates: 0,
			CapHit:  i%3 == 0,
			Checked: s + "\n" + s,
		})
	}
	return recs
}

// nonCanonicalLines are valid or invalid JSON that the fast decoder must
// leave to json.Unmarshal (or decode exactly as it does).
var nonCanonicalLines = []string{
	``,
	`null`,
	`{}`,
	`[1,2]`,
	`{"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"} `,
	` {"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}x`,
	`{"name":"n","key":"k","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"KEY":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"errors":[],"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":false,"errors":[{"line":2,"observed":"EPERM","allowed":[]}],"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":false,"errors":null,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"cap_hit":false,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":1.0,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":1e2,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":01,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":-0,"max_states":-,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":-0,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":99999999999999999999,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":true,"steps":123456789012345678,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"k","name":"n","accepted":1,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"\u0041\/\ud83d\ude00\ud800\udc00\ud83d\u0041\udc00x","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"\ud800","name":"\ud800\","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"\uZZZZ","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	`{"key":"\'","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"}`,
	"{\"key\":\"tab\there\",\"name\":\"n\",\"accepted\":true,\"steps\":1,\"max_states\":1,\"tau_expansions\":0,\"sum_states\":1,\"checked\":\"c\"}",
	"{\"key\":\"bad \xff\",\"name\":\"n\",\"accepted\":true,\"steps\":1,\"max_states\":1,\"tau_expansions\":0,\"sum_states\":1,\"checked\":\"c\"}",
	`{"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"unterminated}`,
	`{"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c","extra":1}`,
	`{"key":"k","name":"n","accepted":true,"steps":1,"max_states":1,"tau_expansions":0,"sum_states":1,"checked":"c"`,
}

// generatedRecordLines runs a stratified slice of the generated suite
// against a defect-injected profile (so some records carry errors and
// allowed sets) and returns the finalized journal's lines.
func generatedRecordLines(tb testing.TB) [][]byte {
	tb.Helper()
	scripts := stratifiedSample(testgen.Generate().Scripts, 200)
	prof := fsimpl.LinuxProfile("record_lines_defects")
	prof.ChmodUnsupported = true
	prof.FlatDirNlink = true
	prof.OAppendBroken = true
	path := filepath.Join(tb.TempDir(), "gen.jsonl")
	sink, err := OpenSink(path, false)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		Name:    "record-lines",
		Scripts: scripts,
		Factory: fsimpl.MemFactory(prof),
		FSName:  prof.Name,
		Spec:    types.DefaultSpec(),
		Workers: 2,
		Sink:    sink,
	}
	if _, _, err := Run(context.Background(), cfg); err != nil {
		tb.Fatal(err)
	}
	if err := sink.Finalize(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// checkRecordLine is the differential property FuzzRecordLine checks:
//   - the fast decoder either declines a line or decodes exactly what
//     json.Unmarshal does (reflect.DeepEqual: nil and empty differ);
//   - unmarshalRecordLine returns json.Unmarshal's record and error;
//   - appendRecord is byte-identical to json.Marshal, both for the
//     decoded record and for one carrying the raw line in every string
//     field (bytes a decoder never produces: invalid UTF-8, controls);
//   - every canonical line takes the fast path.
func checkRecordLine(t *testing.T, line []byte) {
	var want Record
	wantErr := json.Unmarshal(line, &want)
	var fast Record
	if decodeRecordLine(line, &fast) {
		if wantErr != nil {
			t.Fatalf("fast decoder accepted a line json.Unmarshal rejects (%v): %q", wantErr, line)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast decoder differs from json.Unmarshal on %q:\n got %#v\nwant %#v", line, fast, want)
		}
	}
	var got Record
	err := unmarshalRecordLine(line, &got)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("unmarshalRecordLine error %v, json.Unmarshal error %v on %q", err, wantErr, line)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("unmarshalRecordLine differs from json.Unmarshal on %q:\n got %#v\nwant %#v", line, got, want)
	}
	if wantErr == nil {
		checkRecordEncoding(t, want)
	}
	s := string(line)
	checkRecordEncoding(t, Record{
		Key: s, Name: s, Errors: []RecordError{{Line: len(s), Observed: s, Allowed: []string{s}}}, Checked: s,
	})
}

// checkRecordEncoding requires appendRecord(rec) == json.Marshal(rec) and
// that the fast decoder takes the canonical line, decoding it exactly as
// json.Unmarshal does.
func checkRecordEncoding(t *testing.T, rec Record) {
	canon, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if enc := appendRecord(nil, &rec); !bytes.Equal(enc, canon) {
		t.Fatalf("appendRecord differs from json.Marshal:\n got %q\nwant %q", enc, canon)
	}
	var fast, want Record
	if !decodeRecordLine(canon, &fast) {
		t.Fatalf("fast decoder declined a canonical line: %q", canon)
	}
	if err := json.Unmarshal(canon, &want); err != nil || !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast decoder differs from json.Unmarshal (%v) on canonical %q:\n got %#v\nwant %#v", err, canon, fast, want)
	}
}

func TestRecordLineCodecMatchesEncodingJSON(t *testing.T) {
	for _, rec := range syntheticRecords() {
		checkRecordEncoding(t, rec)
		line, _ := json.Marshal(rec)
		checkRecordLine(t, line)
	}
	for _, line := range nonCanonicalLines {
		checkRecordLine(t, []byte(line))
	}
	for _, s := range trickyStrings {
		checkRecordLine(t, []byte(s))
	}
}

func TestRecordLineCodecOnGeneratedSuite(t *testing.T) {
	lines := generatedRecordLines(t)
	rejected := 0
	for _, line := range lines {
		checkRecordLine(t, line)
		if bytes.Contains(line, []byte(`"allowed":[`)) {
			rejected++
		}
	}
	if len(lines) < 40 || rejected == 0 {
		t.Fatalf("%d lines, %d with allowed sets: the seed run lost its coverage", len(lines), rejected)
	}
}

// TestFastDecoderTakesCanonicalLines pins that the speed claim holds: a
// canonical line never reaches json.Unmarshal.
func TestFastDecoderTakesCanonicalLines(t *testing.T) {
	for _, rec := range syntheticRecords() {
		var got Record
		if line := marshalRecord(&rec); !decodeRecordLine(line, &got) {
			t.Fatalf("declined %q", line)
		}
	}
	if decodeRecordLine([]byte(strings.Replace(string(marshalRecord(&Record{Key: "k"})), ":", ": ", 1)), new(Record)) {
		t.Fatal("accepted a line with whitespace")
	}
}

func FuzzRecordLine(f *testing.F) {
	for _, rec := range syntheticRecords() {
		f.Add(marshalRecord(&rec))
	}
	for _, line := range nonCanonicalLines {
		f.Add([]byte(line))
	}
	for i, line := range generatedRecordLines(f) {
		if i%8 == 0 || bytes.Contains(line, []byte(`"errors":[`)) {
			f.Add(line)
		}
	}
	f.Fuzz(checkRecordLine)
}
