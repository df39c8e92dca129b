package types

import (
	"sort"
	"strings"
)

// OpenFlags is the bitfield of flags accepted by open(2). The values are
// abstract (they do not match any particular kernel's encoding); traces use
// the symbolic names.
type OpenFlags uint32

const (
	ORdonly    OpenFlags = 0         // O_RDONLY is the absence of O_WRONLY/O_RDWR
	OWronly    OpenFlags = 1 << iota // O_WRONLY
	ORdwr                            // O_RDWR
	OCreat                           // O_CREAT
	OExcl                            // O_EXCL
	OTrunc                           // O_TRUNC
	OAppend                          // O_APPEND
	ODirectory                       // O_DIRECTORY
	ONofollow                        // O_NOFOLLOW
	OCloexec                         // O_CLOEXEC
	ONonblock                        // O_NONBLOCK
	OSync                            // O_SYNC
	ONoctty                          // O_NOCTTY
)

var openFlagNames = []struct {
	f OpenFlags
	n string
}{
	{OWronly, "O_WRONLY"},
	{ORdwr, "O_RDWR"},
	{OCreat, "O_CREAT"},
	{OExcl, "O_EXCL"},
	{OTrunc, "O_TRUNC"},
	{OAppend, "O_APPEND"},
	{ODirectory, "O_DIRECTORY"},
	{ONofollow, "O_NOFOLLOW"},
	{OCloexec, "O_CLOEXEC"},
	{ONonblock, "O_NONBLOCK"},
	{OSync, "O_SYNC"},
	{ONoctty, "O_NOCTTY"},
}

// Has reports whether all bits of g are set in f.
func (f OpenFlags) Has(g OpenFlags) bool { return f&g == g }

// AccessMode extracts the access-mode portion (O_RDONLY, O_WRONLY or
// O_RDWR). A flag word with both O_WRONLY and O_RDWR set is invalid; the
// spec treats it as O_RDWR on Linux and as EINVAL on POSIX.
func (f OpenFlags) AccessMode() OpenFlags { return f & (OWronly | ORdwr) }

// Readable reports whether the access mode permits reading.
func (f OpenFlags) Readable() bool { return f.AccessMode() == ORdonly || f.Has(ORdwr) }

// Writable reports whether the access mode permits writing.
func (f OpenFlags) Writable() bool { return f.Has(OWronly) || f.Has(ORdwr) }

// String renders the flag set in trace syntax: "[O_CREAT;O_WRONLY]".
func (f OpenFlags) String() string {
	var parts []string
	if f.AccessMode() == ORdonly {
		parts = append(parts, "O_RDONLY")
	}
	for _, fn := range openFlagNames {
		if f.Has(fn.f) {
			parts = append(parts, fn.n)
		}
	}
	sort.Strings(parts)
	return "[" + strings.Join(parts, ";") + "]"
}

// ParseOpenFlags parses trace syntax such as "[O_CREAT;O_WRONLY]".
func ParseOpenFlags(s string) (OpenFlags, bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, false
	}
	s = s[1 : len(s)-1]
	var f OpenFlags
	if s == "" {
		return f, true
	}
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ";")
		part = strings.TrimSpace(part)
		if part == "O_RDONLY" {
			continue
		}
		found := false
		for _, fn := range openFlagNames {
			if fn.n == part {
				f |= fn.f
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return f, true
}

// SeekWhence is the third argument of lseek.
type SeekWhence int

const (
	SeekSet SeekWhence = iota // SEEK_SET
	SeekCur                   // SEEK_CUR
	SeekEnd                   // SEEK_END
)

// String renders the whence in trace syntax.
func (w SeekWhence) String() string {
	switch w {
	case SeekSet:
		return "SEEK_SET"
	case SeekCur:
		return "SEEK_CUR"
	case SeekEnd:
		return "SEEK_END"
	}
	return "SEEK_?"
}

// ParseSeekWhence parses trace syntax for the lseek whence argument.
func ParseSeekWhence(s string) (SeekWhence, bool) {
	switch s {
	case "SEEK_SET":
		return SeekSet, true
	case "SEEK_CUR":
		return SeekCur, true
	case "SEEK_END":
		return SeekEnd, true
	}
	return 0, false
}
