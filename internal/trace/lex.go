package trace

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenize splits a script/trace line into tokens: quoted strings (kept
// with their quotes), bracketed flag lists ("[O_CREAT;O_WRONLY]"),
// parenthesised handles ("(FD 3)"), stats records ("{ ... }") and plain
// words. The concrete syntax is simple enough for a hand-rolled scanner.
// Tokens are appended to toks (a buffer the caller reuses across lines)
// and slice line, so tokenizing allocates nothing once toks has grown.
func tokenize(line string, toks []string) ([]string, error) {
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '"':
			j := i + 1
			for j < n {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("unterminated string")
			}
			toks = append(toks, line[i:j+1])
			i = j + 1
		case c == '[':
			j := strings.IndexByte(line[i:], ']')
			if j < 0 {
				return nil, fmt.Errorf("unterminated flag list")
			}
			toks = append(toks, line[i:i+j+1])
			i += j + 1
		case c == '(':
			j := strings.IndexByte(line[i:], ')')
			if j < 0 {
				return nil, fmt.Errorf("unterminated handle")
			}
			toks = append(toks, line[i:i+j+1])
			i += j + 1
		case c == '{':
			j := strings.IndexByte(line[i:], '}')
			if j < 0 {
				return nil, fmt.Errorf("unterminated record")
			}
			toks = append(toks, line[i:i+j+1])
			i += j + 1
		default:
			j := i
			for j < n && line[j] != ' ' && line[j] != '\t' {
				// A word containing '(' runs to the matching ')', so
				// "RV_file_descriptor(FD 3)" is a single token.
				if line[j] == '(' {
					k := strings.IndexByte(line[j:], ')')
					if k < 0 {
						return nil, fmt.Errorf("unterminated parenthesis")
					}
					j += k + 1
					continue
				}
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}

func unquote(tok string) (string, error) {
	if len(tok) < 2 || tok[0] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", tok)
	}
	return strconv.Unquote(tok)
}

func parseInt(tok string) (int64, error) {
	return strconv.ParseInt(tok, 10, 64)
}

// parsePerm accepts "0oNNN" (trace syntax) and plain octal/decimal.
func parsePerm(tok string) (uint32, error) {
	s := tok
	base := 10
	if strings.HasPrefix(s, "0o") || strings.HasPrefix(s, "0O") {
		s = s[2:]
		base = 8
	} else if strings.HasPrefix(s, "0") && len(s) > 1 {
		s = s[1:]
		base = 8
	}
	v, err := strconv.ParseUint(s, base, 32)
	if err != nil {
		return 0, fmt.Errorf("bad permission %q: %v", tok, err)
	}
	return uint32(v), nil
}

// parseHandle accepts "(FD 3)" or "(DH 2)", returning the kind and number.
func parseHandle(tok string) (kind string, n int64, err error) {
	if len(tok) < 2 || tok[0] != '(' || tok[len(tok)-1] != ')' {
		return "", 0, fmt.Errorf("expected handle, got %q", tok)
	}
	// Exactly two space-separated fields (strings.Fields' rule, without
	// its slice).
	kind, rest := nextField(tok[1 : len(tok)-1])
	num, rest := nextField(rest)
	if extra, _ := nextField(rest); num == "" || extra != "" {
		return "", 0, fmt.Errorf("malformed handle %q", tok)
	}
	n, err = strconv.ParseInt(num, 10, 64)
	return kind, n, err
}

// nextField splits off the first whitespace-separated field of s ("" if
// s is blank) and returns it with the remainder.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	end := strings.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		return s, ""
	}
	return s[:end], s[end:]
}
