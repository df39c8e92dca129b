package pipeline

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Record line codec. Every record line this package writes — journal,
// finalized JSONL, the JSON half of a framed store value — is the
// canonical encoding: exactly the bytes json.Marshal(Record) produces.
// Reading a 21k-record journal back through reflection-driven
// json.Unmarshal costs more than the whole warm run's store reads, so both
// directions are spelled out here for that one layout:
//
//   - appendRecord writes the canonical line itself, byte-identical to
//     json.Marshal (HTML-safe escapes, U+2028/U+2029 escaped, invalid
//     UTF-8 as \ufffd, omitempty fields left out);
//   - decodeRecordLine reads a line only if it has exactly that layout —
//     field order, no whitespace, integer numbers — and gives each string
//     one allocation of its final size (unescaping, where needed, goes
//     through a recycled scratch buffer).
//
// unmarshalRecordLine hands every other line to json.Unmarshal, so what
// is accepted, what it decodes to and which error comes back stay
// json.Unmarshal's. FuzzRecordLine pins both halves against encoding/json.

// unmarshalRecordLine decodes one record line into rec, which must be the
// zero Record.
func unmarshalRecordLine(line []byte, rec *Record) error {
	if decodeRecordLine(line, rec) {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(line, rec)
}

// marshalRecord returns rec's canonical line in a buffer sized for it.
func marshalRecord(rec *Record) []byte {
	return appendRecord(make([]byte, 0, recordLineHint(rec)), rec)
}

// recordLineHint estimates the length of rec's canonical line: the fixed
// field names plus every string with an eighth more for escapes (checked
// traces escape a newline per line and the quotes around each path).
func recordLineHint(rec *Record) int {
	n := len(rec.Key) + len(rec.Name) + len(rec.Checked)
	for _, e := range rec.Errors {
		n += 32 + len(e.Observed)
		for _, a := range e.Allowed {
			n += 3 + len(a)
		}
	}
	return 160 + n + n/8
}

// appendRecord appends rec's canonical line (json.Marshal(rec)) to dst.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendJSONString(dst, rec.Key)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, rec.Name)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendBool(dst, rec.Accepted)
	if len(rec.Errors) > 0 {
		dst = append(dst, `,"errors":[`...)
		for i := range rec.Errors {
			e := &rec.Errors[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"line":`...)
			dst = strconv.AppendInt(dst, int64(e.Line), 10)
			dst = append(dst, `,"observed":`...)
			dst = appendJSONString(dst, e.Observed)
			if len(e.Allowed) > 0 {
				dst = append(dst, `,"allowed":[`...)
				for j, a := range e.Allowed {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendJSONString(dst, a)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, int64(rec.Steps), 10)
	dst = append(dst, `,"max_states":`...)
	dst = strconv.AppendInt(dst, int64(rec.MaxStates), 10)
	dst = append(dst, `,"tau_expansions":`...)
	dst = strconv.AppendInt(dst, int64(rec.TauExpansions), 10)
	dst = append(dst, `,"sum_states":`...)
	dst = strconv.AppendInt(dst, int64(rec.SumStates), 10)
	if rec.CapHit {
		dst = append(dst, `,"cap_hit":true`...)
	}
	dst = append(dst, `,"checked":`...)
	dst = appendJSONString(dst, rec.Checked)
	return append(dst, '}')
}

// jsonSafe marks the ASCII bytes encoding/json writes unescaped in its
// default HTML-safe mode: everything from ' ' up except '"', '\\', '<',
// '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune("\"\\<>&", b)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeRecordLine decodes a canonical record line into rec and reports
// whether the line was one; on false rec holds garbage and the caller
// falls back to json.Unmarshal.
func decodeRecordLine(line []byte, rec *Record) bool {
	scratch := unescapeScratch.Get().(*[]byte)
	c := lineCursor{buf: line, scratch: *scratch}
	c.lit(`{"key":`)
	rec.Key = c.str()
	c.lit(`,"name":`)
	rec.Name = c.str()
	c.lit(`,"accepted":`)
	rec.Accepted = c.bool()
	if c.has(`,"errors":[`) {
		for {
			c.lit(`{"line":`)
			e := RecordError{Line: c.int()}
			c.lit(`,"observed":`)
			e.Observed = c.str()
			if c.has(`,"allowed":[`) {
				for {
					e.Allowed = append(e.Allowed, c.str())
					if !c.has(",") {
						break
					}
				}
				c.lit("]")
			}
			c.lit("}")
			rec.Errors = append(rec.Errors, e)
			if !c.has(",") {
				break
			}
		}
		c.lit("]")
	}
	c.lit(`,"steps":`)
	rec.Steps = c.int()
	c.lit(`,"max_states":`)
	rec.MaxStates = c.int()
	c.lit(`,"tau_expansions":`)
	rec.TauExpansions = c.int()
	c.lit(`,"sum_states":`)
	rec.SumStates = c.int()
	rec.CapHit = c.has(`,"cap_hit":true`)
	c.lit(`,"checked":`)
	rec.Checked = c.str()
	c.lit("}")
	*scratch = c.scratch
	unescapeScratch.Put(scratch)
	return !c.failed && len(c.buf) == 0
}

// unescapeScratch recycles lineCursor scratch buffers across lines (and
// ReadRecords' goroutines), so unescaping allocates only its results.
var unescapeScratch = sync.Pool{New: func() any { return new([]byte) }}

// lineCursor walks a candidate canonical line; the first departure from
// the layout sets failed, after which every read is a no-op (so the
// decoder's loops end) and the caller falls back.
type lineCursor struct {
	buf     []byte
	scratch []byte // unescaping buffer (see str)
	failed  bool
}

// has consumes s if the input continues with it.
func (c *lineCursor) has(s string) bool {
	if c.failed || len(c.buf) < len(s) || string(c.buf[:len(s)]) != s {
		return false
	}
	c.buf = c.buf[len(s):]
	return true
}

// lit consumes s or fails.
func (c *lineCursor) lit(s string) {
	if !c.has(s) {
		c.failed = true
	}
}

func (c *lineCursor) bool() bool {
	if c.has("true") {
		return true
	}
	c.lit("false")
	return false
}

// int reads a JSON integer that fits an int. A fraction or exponent
// fails: json.Unmarshal refuses those for an int field.
func (c *lineCursor) int() int {
	if c.failed {
		return 0
	}
	b := c.buf
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	var v uint64 // 19 digits cannot overflow it
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	limit := uint64(1<<(strconv.IntSize-1)) - 1 // largest int
	if start > 0 {
		limit++ // the most negative int has no positive counterpart
	}
	if i == start || i-start > 19 || v > limit || (b[start] == '0' && i > start+1) ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		c.failed = true
		return 0
	}
	c.buf = b[i:]
	if start > 0 {
		return int(-v)
	}
	return int(v)
}

// str reads a JSON string. A body without escapes or invalid UTF-8 is
// copied straight into the string; any other is unescaped into the
// cursor's scratch buffer (reused across strings and lines) and copied
// from there, so each string is still one allocation of its final size.
// The unescaping is json.Unmarshal's: \uXXXX surrogate pairs combine, a
// lone surrogate or an invalid UTF-8 byte becomes U+FFFD.
func (c *lineCursor) str() string {
	if c.failed || len(c.buf) == 0 || c.buf[0] != '"' {
		c.failed = true
		return ""
	}
	s := c.buf[1:]
	i := verbatimPrefix(s)
	if i < len(s) && s[i] == '"' {
		c.buf = s[i+1:]
		return string(s[:i])
	}
	out := append(c.scratch[:0], s[:i]...)
	for i < len(s) {
		switch b := s[i]; {
		case b == '"':
			c.scratch = out
			c.buf = s[i+1:]
			return string(out)
		case b == '\\':
			if i+1 >= len(s) {
				c.failed = true
				return ""
			}
			var r rune
			switch s[i+1] {
			case '"', '\\', '/':
				r = rune(s[i+1])
			case 'b':
				r = '\b'
			case 'f':
				r = '\f'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case 't':
				r = '\t'
			case 'u':
				if r = getu4(s[i:]); r < 0 {
					c.failed = true
					return ""
				}
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i+6:])); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				i += 4
			default:
				c.failed = true
				return ""
			}
			i += 2
			out = utf8.AppendRune(out, r)
			continue
		case b < ' ':
			c.failed = true
			return ""
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, r)
			} else {
				out = append(out, s[i:i+size]...)
			}
			i += size
			continue
		}
		j := i + verbatimPrefix(s[i:])
		out = append(out, s[i:j]...)
		i = j
	}
	c.failed = true // unterminated
	return ""
}

// jsonVerbatim marks the bytes a JSON string body holds as themselves:
// ASCII from ' ' up, except '"' and '\\'.
var jsonVerbatim = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// verbatimPrefix returns the length of the run of verbatim bytes s
// starts with.
func verbatimPrefix(s []byte) int {
	for i, b := range s {
		if !jsonVerbatim[b] {
			return i
		}
	}
	return len(s)
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
