package pipeline

import "encoding/binary"

// Framed record encoding — the value format the result cache stores
// under a record key:
//
//	"sfsrec1\x00" | uint32 len(json) | json | binary fields
//
// A warm hit decodes the flat binary fields (length-prefixed slices, no
// parser) and journals the embedded canonical JSON verbatim
// (Sink.AppendEncoded) — neither a JSON parse nor a re-marshal. The JSON
// is authoritative for every external consumer (journal, Finalize,
// ReadRecords) and is written as is: it is the canonical line
// (appendRecord, byte-identical to json.Marshal(rec)) frameRecord wrote.
// The binary part is a pure decode accelerator, and any damage to it
// degrades to parsing the embedded JSON, never to a wrong record.

// recMagic tags a framed record entry; a value without it is a miss.
const recMagic = "sfsrec1\x00"

// frameRecord encodes rec as a framed entry, writing its canonical JSON
// line (appendRecord) straight into the frame, and returns the frame and
// the line within it — one buffer serves the store and, through
// Sink.AppendEncoded (which copies), the journal.
func frameRecord(rec *Record) (frame, line []byte) {
	head := len(recMagic) + 4
	n := 1 + 16 + 4 + len(rec.Name) + 4 + len(rec.Checked) + 4
	for _, e := range rec.Errors {
		n += 4 + 4 + len(e.Observed) + 4
		for _, a := range e.Allowed {
			n += 4 + len(a)
		}
	}
	buf := make([]byte, head, head+recordLineHint(rec)+n)
	copy(buf, recMagic)
	buf = appendRecord(buf, rec)
	lineEnd := len(buf)
	binary.BigEndian.PutUint32(buf[len(recMagic):], uint32(lineEnd-head))
	buf = appendBytes32(buf, []byte(rec.Name))
	var flags byte
	if rec.Accepted {
		flags |= 1
	}
	if rec.CapHit {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.Steps))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.MaxStates))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.TauExpansions))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.SumStates))
	buf = appendBytes32(buf, []byte(rec.Checked))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Errors)))
	for _, e := range rec.Errors {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Line))
		buf = appendBytes32(buf, []byte(e.Observed))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Allowed)))
		for _, a := range e.Allowed {
			buf = appendBytes32(buf, []byte(a))
		}
	}
	return buf, buf[head:lineEnd:lineEnd]
}

func appendBytes32(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// decodeRecord decodes a framed record value, returning the record and
// its canonical JSON line. Anything else, and a frame whose embedded JSON
// does not parse either, is a miss (ok false) — the writer will overwrite
// it — never an error.
func decodeRecord(data []byte, key string) (Record, []byte, bool) {
	if len(data) < len(recMagic) || string(data[:len(recMagic)]) != recMagic {
		return Record{}, nil, false
	}
	d := decoder{buf: data[len(recMagic):]}
	line := d.bytes32()
	rec := Record{Key: key, Name: string(d.bytes32())}
	flags := d.byte()
	rec.Accepted = flags&1 != 0
	rec.CapHit = flags&2 != 0
	rec.Steps = int(d.uint32())
	rec.MaxStates = int(d.uint32())
	rec.TauExpansions = int(d.uint32())
	rec.SumStates = int(d.uint32())
	rec.Checked = string(d.bytes32())
	if n := d.uint32(); n > 0 && !d.failed {
		rec.Errors = make([]RecordError, 0, n)
		for i := uint32(0); i < n && !d.failed; i++ {
			e := RecordError{Line: int(d.uint32()), Observed: string(d.bytes32())}
			if m := d.uint32(); m > 0 && !d.failed {
				e.Allowed = make([]string, 0, m)
				for j := uint32(0); j < m && !d.failed; j++ {
					e.Allowed = append(e.Allowed, string(d.bytes32()))
				}
			}
			rec.Errors = append(rec.Errors, e)
		}
	}
	if d.failed || len(d.buf) != 0 {
		// Damaged binary part: the embedded JSON (if intact) is still
		// authoritative.
		return parseRecordLine(line, key)
	}
	return rec, line, true
}

// parseRecordLine parses the JSON embedded in a damaged frame stored
// under key and re-encodes it, so the line handed on is canonical (the
// journal writes it verbatim).
func parseRecordLine(data []byte, key string) (Record, []byte, bool) {
	var rec Record
	if err := unmarshalRecordLine(data, &rec); err != nil {
		return Record{}, nil, false
	}
	rec.Key = key
	return rec, marshalRecord(&rec), true
}

// decoder is a bounds-checked cursor over a framed entry; any overrun
// sets failed instead of panicking (a CRC proves the bytes are what some
// writer stored, not that the writer framed them well).
type decoder struct {
	buf    []byte
	failed bool
}

func (d *decoder) byte() byte {
	if d.failed || len(d.buf) < 1 {
		d.failed = true
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uint32() uint32 {
	if d.failed || len(d.buf) < 4 {
		d.failed = true
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) bytes32() []byte {
	n := d.uint32()
	if d.failed || uint32(len(d.buf)) < n {
		d.failed = true
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}
