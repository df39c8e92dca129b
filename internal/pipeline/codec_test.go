package pipeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func codecTestRecord() Record {
	rec := Record{Key: "k0", Name: "t_open.script"}
	rec.Errors = []RecordError{
		{Line: 3, Observed: "ENOENT", Allowed: []string{"EACCES", "EPERM"}},
		{Line: 7, Observed: "RV_NONE", Allowed: nil},
	}
	rec.Steps = 12
	rec.MaxStates = 34
	rec.TauExpansions = 5
	rec.SumStates = 99
	rec.CapHit = true
	rec.Checked = "@ t_open.script\nopen \"f\" [O_RDONLY]\nENOENT\n"
	return rec
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rec := codecTestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	data, framedLine := frameRecord(&rec)
	if !bytes.Equal(framedLine, line) {
		t.Fatalf("framed line mismatch:\n got %q\nwant %q", framedLine, line)
	}
	got, gotLine, ok := decodeRecord(data, rec.Key)
	if !ok {
		t.Fatal("decodeRecord: not ok")
	}
	if !bytes.Equal(gotLine, line) {
		t.Fatalf("embedded line mismatch:\n got %q\nwant %q", gotLine, line)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

// A bare JSON line without the frame's magic is a miss: the store holds
// framed values only, and a miss costs one re-check, never a wrong verdict.
func TestRecordCodecBareJSON(t *testing.T) {
	rec := codecTestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := decodeRecord(line, rec.Key); ok {
		t.Fatal("bare JSON decoded as ok; want a miss")
	}
	// The same line inside a frame still decodes.
	data, _ := frameRecord(&rec)
	if got, _, ok := decodeRecord(data, rec.Key); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("framed record: ok=%v got %+v", ok, got)
	}
}

func TestRecordCodecDamagedBinaryFallsBackToJSON(t *testing.T) {
	rec := codecTestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := frameRecord(&rec)
	// Truncate into the binary tail: the embedded JSON (which sits right
	// after the magic and length) stays intact and must win.
	for _, cut := range []int{len(data) - 1, len(data) - 10, len(recMagic) + 4 + len(line)} {
		got, gotLine, ok := decodeRecord(data[:cut], rec.Key)
		if !ok {
			t.Fatalf("cut=%d: decode failed despite intact embedded JSON", cut)
		}
		if !bytes.Equal(gotLine, line) {
			t.Fatalf("cut=%d: line mismatch", cut)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("cut=%d: record mismatch", cut)
		}
	}
	// Framed garbage and non-JSON garbage are misses, not errors.
	for _, data := range [][]byte{[]byte("sfsrec1\x00\xff\xff\xff\xff"), []byte("not json")} {
		if _, _, ok := decodeRecord(data, "k"); ok {
			t.Fatalf("%.20q decoded as ok", data)
		}
	}
}
