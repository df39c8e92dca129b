package trace

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// ParseScript parses script concrete syntax (Fig 2).
func ParseScript(text string) (*Script, error) {
	s := &Script{Steps: make([]Step, 0, maxSteps(text))}
	err := parseLines(text, "script", func(line int, lbl types.Label) {
		s.Steps = append(s.Steps, Step{Label: lbl, Line: line})
	}, &s.Name)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ParseTrace parses trace concrete syntax (Fig 3).
func ParseTrace(text string) (*Trace, error) {
	t := &Trace{Steps: make([]Step, 0, maxSteps(text))}
	err := parseLines(text, "trace", func(line int, lbl types.Label) {
		t.Steps = append(t.Steps, Step{Label: lbl, Line: line})
	}, &t.Name)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// maxSteps bounds the steps text can hold: one per line, less the
// "@type" header every valid text carries.
func maxSteps(text string) int {
	return strings.Count(text, "\n")
}

// parseLines walks text line by line (no per-line slice of the whole
// text), reusing one token buffer for every label it parses.
func parseLines(text, want string, emit func(int, types.Label), name *string) error {
	sawHeader := false
	var tokBuf [8]string // room for any label's tokens: toks stays on the stack
	toks := tokBuf[:0]
	rest, more := text, true
	for lineNo := 1; more; lineNo++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "@type") {
			got := strings.TrimSpace(strings.TrimPrefix(line, "@type"))
			if got != want {
				return fmt.Errorf("line %d: expected @type %s, got %q", lineNo, want, got)
			}
			sawHeader = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			c := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if strings.HasPrefix(c, "Test ") && *name == "" {
				*name = strings.TrimPrefix(c, "Test ")
			}
			continue
		}
		if !sawHeader {
			return fmt.Errorf("line %d: missing @type %s header", lineNo, want)
		}
		var lbl types.Label
		var err error
		lbl, toks, err = parseLabel(line, toks[:0])
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		emit(lineNo, lbl)
	}
	return nil
}

// ParseLabel parses one call, return, create, destroy or tau line.
func ParseLabel(line string) (types.Label, error) {
	lbl, _, err := parseLabel(line, nil)
	return lbl, err
}

// parseLabel is ParseLabel tokenizing into toks (returned, possibly
// grown, for the next line to reuse).
func parseLabel(line string, toks []string) (types.Label, []string, error) {
	toks, err := tokenize(line, toks)
	if err != nil {
		return nil, toks, err
	}
	lbl, err := labelOf(toks)
	return lbl, toks, err
}

// labelOf builds the label a line's tokens spell.
func labelOf(toks []string) (types.Label, error) {
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty label")
	}
	switch toks[0] {
	case "tau":
		return types.TauLabel{}, nil
	case "crash":
		if len(toks) != 2 {
			return nil, fmt.Errorf("crash needs KEEP (pending effects surviving)")
		}
		keep, err := parseInt(toks[1])
		if err != nil || keep < 0 {
			return nil, fmt.Errorf("bad crash keep count")
		}
		return types.CrashLabel{Keep: int(keep)}, nil
	case "create":
		if len(toks) != 4 {
			return nil, fmt.Errorf("create needs PID UID GID")
		}
		pid, e1 := parseInt(toks[1])
		uid, e2 := parseInt(toks[2])
		gid, e3 := parseInt(toks[3])
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, fmt.Errorf("bad create arguments")
		}
		return types.CreateLabel{Pid: types.Pid(pid), Uid: types.Uid(uid), Gid: types.Gid(gid)}, nil
	case "destroy":
		if len(toks) != 2 {
			return nil, fmt.Errorf("destroy needs PID")
		}
		pid, err := parseInt(toks[1])
		if err != nil {
			return nil, fmt.Errorf("bad destroy pid")
		}
		return types.DestroyLabel{Pid: types.Pid(pid)}, nil
	}

	// "PID:" prefix; default pid 1 for bare command lines.
	pid := types.Pid(1)
	rest := toks
	if strings.HasSuffix(toks[0], ":") {
		n, err := strconv.ParseInt(strings.TrimSuffix(toks[0], ":"), 10, 32)
		if err == nil {
			pid = types.Pid(n)
			rest = toks[1:]
		}
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("missing command or return value")
	}
	if rv, ok, err := parseRetValue(rest); ok || err != nil {
		if err != nil {
			return nil, err
		}
		return types.ReturnLabel{Pid: pid, Ret: rv}, nil
	}
	cmd, err := parseCommand(rest)
	if err != nil {
		return nil, err
	}
	return types.CallLabel{Pid: pid, Cmd: cmd}, nil
}

// parseRetValue recognises return-value tokens; ok=false means the tokens
// are not a return value (so should be parsed as a command).
func parseRetValue(toks []string) (types.RetValue, bool, error) {
	t0 := toks[0]
	if e, ok := types.ParseErrno(t0); ok {
		return types.RvErr{Err: e}, true, nil
	}
	switch {
	case t0 == "RV_none":
		return types.RvNone{}, true, nil
	case t0 == "RV_readdir_end":
		return types.RvDirent{End: true}, true, nil
	case strings.HasPrefix(t0, "RV_num("):
		inner := strings.TrimSuffix(strings.TrimPrefix(t0, "RV_num("), ")")
		n, err := parseInt(inner)
		if err != nil {
			return nil, true, fmt.Errorf("bad RV_num: %v", err)
		}
		return types.RvNum{N: n}, true, nil
	case strings.HasPrefix(t0, "RV_bytes("):
		inner := strings.TrimSuffix(strings.TrimPrefix(t0, "RV_bytes("), ")")
		s, err := strconv.Unquote(inner)
		if err != nil {
			return nil, true, fmt.Errorf("bad RV_bytes: %v", err)
		}
		return types.RvBytes{Data: []byte(s)}, true, nil
	case strings.HasPrefix(t0, "RV_readdir("):
		inner := strings.TrimSuffix(strings.TrimPrefix(t0, "RV_readdir("), ")")
		s, err := strconv.Unquote(inner)
		if err != nil {
			return nil, true, fmt.Errorf("bad RV_readdir: %v", err)
		}
		return types.RvDirent{Name: s}, true, nil
	case strings.HasPrefix(t0, "RV_file_descriptor("):
		inner := "(" + strings.TrimSuffix(strings.TrimPrefix(t0, "RV_file_descriptor("), ")") + ")"
		kind, n, err := parseHandle(inner)
		if err != nil || kind != "FD" {
			return nil, true, fmt.Errorf("bad RV_file_descriptor")
		}
		return types.RvFD{FD: types.FD(n)}, true, nil
	case strings.HasPrefix(t0, "RV_dir_handle("):
		inner := "(" + strings.TrimSuffix(strings.TrimPrefix(t0, "RV_dir_handle("), ")") + ")"
		kind, n, err := parseHandle(inner)
		if err != nil || kind != "DH" {
			return nil, true, fmt.Errorf("bad RV_dir_handle")
		}
		return types.RvDH{DH: types.DH(n)}, true, nil
	case strings.HasPrefix(t0, "RV_perm("):
		inner := strings.TrimSuffix(strings.TrimPrefix(t0, "RV_perm("), ")")
		p, err := parsePerm(inner)
		if err != nil {
			return nil, true, err
		}
		return types.RvPerm{Perm: types.Perm(p)}, true, nil
	case t0 == "RV_stats":
		if len(toks) < 2 {
			return nil, true, fmt.Errorf("RV_stats needs a record")
		}
		st, err := parseStatsRecord(toks[1])
		if err != nil {
			return nil, true, err
		}
		return types.RvStats{Stats: st}, true, nil
	}
	return nil, false, nil
}

// parseStatsRecord parses "{ st_kind=S_IFREG; st_perm=0o644; ... }".
func parseStatsRecord(tok string) (types.Stats, error) {
	var st types.Stats
	if len(tok) < 2 || tok[0] != '{' || tok[len(tok)-1] != '}' {
		return st, fmt.Errorf("expected stats record, got %q", tok)
	}
	body := tok[1 : len(tok)-1]
	for _, field := range strings.Split(body, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			return st, fmt.Errorf("bad stats field %q", field)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "st_kind":
			switch val {
			case "S_IFREG":
				st.Kind = types.KindFile
			case "S_IFDIR":
				st.Kind = types.KindDir
			case "S_IFLNK":
				st.Kind = types.KindSymlink
			default:
				return st, fmt.Errorf("bad st_kind %q", val)
			}
		case "st_perm":
			p, err := parsePerm(val)
			if err != nil {
				return st, err
			}
			st.Perm = types.Perm(p)
		case "st_size":
			n, err := parseInt(val)
			if err != nil {
				return st, err
			}
			st.Size = n
		case "st_nlink":
			n, err := parseInt(val)
			if err != nil {
				return st, err
			}
			st.Nlink = int(n)
		case "st_uid":
			n, err := parseInt(val)
			if err != nil {
				return st, err
			}
			st.Uid = types.Uid(n)
		case "st_gid":
			n, err := parseInt(val)
			if err != nil {
				return st, err
			}
			st.Gid = types.Gid(n)
		case "st_ino":
			n, err := parseInt(val)
			if err != nil {
				return st, err
			}
			st.Ino = n
		default:
			return st, fmt.Errorf("unknown stats field %q", key)
		}
	}
	return st, nil
}

// parseCommand parses a libc command invocation.
func parseCommand(toks []string) (types.Command, error) {
	op := toks[0]
	args := toks[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: expected %d arguments, got %d", op, n, len(args))
		}
		return nil
	}
	switch op {
	case "mkdir":
		if err := need(2); err != nil {
			return nil, err
		}
		p, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		perm, err := parsePerm(args[1])
		if err != nil {
			return nil, err
		}
		return types.Mkdir{Path: p, Perm: types.Perm(perm)}, nil
	case "rmdir", "unlink", "stat", "lstat", "opendir", "chdir", "readlink":
		if err := need(1); err != nil {
			return nil, err
		}
		p, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		switch op {
		case "rmdir":
			return types.Rmdir{Path: p}, nil
		case "unlink":
			return types.Unlink{Path: p}, nil
		case "stat":
			return types.Stat{Path: p}, nil
		case "lstat":
			return types.Lstat{Path: p}, nil
		case "opendir":
			return types.Opendir{Path: p}, nil
		case "chdir":
			return types.Chdir{Path: p}, nil
		default:
			return types.Readlink{Path: p}, nil
		}
	case "link", "rename", "symlink":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		b, err := unquote(args[1])
		if err != nil {
			return nil, err
		}
		switch op {
		case "link":
			return types.Link{Src: a, Dst: b}, nil
		case "rename":
			return types.Rename{Src: a, Dst: b}, nil
		default:
			return types.Symlink{Target: a, Linkpath: b}, nil
		}
	case "open":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("open: expected 2 or 3 arguments")
		}
		p, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		fl, ok := types.ParseOpenFlags(args[1])
		if !ok {
			return nil, fmt.Errorf("open: bad flags %q", args[1])
		}
		cmd := types.Open{Path: p, Flags: fl}
		if len(args) == 3 {
			perm, err := parsePerm(args[2])
			if err != nil {
				return nil, err
			}
			cmd.Perm = types.Perm(perm)
			cmd.HasPerm = true
		}
		return cmd, nil
	case "close", "readdir", "closedir", "rewinddir":
		if err := need(1); err != nil {
			return nil, err
		}
		kind, n, err := parseHandle(args[0])
		if err != nil {
			return nil, err
		}
		switch op {
		case "close":
			if kind != "FD" {
				return nil, fmt.Errorf("close needs (FD n)")
			}
			return types.Close{FD: types.FD(n)}, nil
		case "readdir":
			if kind != "DH" {
				return nil, fmt.Errorf("readdir needs (DH n)")
			}
			return types.Readdir{DH: types.DH(n)}, nil
		case "closedir":
			if kind != "DH" {
				return nil, fmt.Errorf("closedir needs (DH n)")
			}
			return types.Closedir{DH: types.DH(n)}, nil
		default:
			if kind != "DH" {
				return nil, fmt.Errorf("rewinddir needs (DH n)")
			}
			return types.Rewinddir{DH: types.DH(n)}, nil
		}
	case "read":
		if err := need(2); err != nil {
			return nil, err
		}
		_, fd, err := parseHandle(args[0])
		if err != nil {
			return nil, err
		}
		n, err := parseInt(args[1])
		if err != nil {
			return nil, err
		}
		return types.Read{FD: types.FD(fd), Size: n}, nil
	case "pread":
		if err := need(3); err != nil {
			return nil, err
		}
		_, fd, err := parseHandle(args[0])
		if err != nil {
			return nil, err
		}
		n, err := parseInt(args[1])
		if err != nil {
			return nil, err
		}
		off, err := parseInt(args[2])
		if err != nil {
			return nil, err
		}
		return types.Pread{FD: types.FD(fd), Size: n, Off: off}, nil
	case "write":
		if err := need(3); err != nil {
			return nil, err
		}
		_, fd, err := parseHandle(args[0])
		if err != nil {
			return nil, err
		}
		data, err := unquote(args[1])
		if err != nil {
			return nil, err
		}
		n, err := parseInt(args[2])
		if err != nil {
			return nil, err
		}
		return types.Write{FD: types.FD(fd), Data: []byte(data), Size: n}, nil
	case "pwrite":
		if err := need(4); err != nil {
			return nil, err
		}
		_, fd, err := parseHandle(args[0])
		if err != nil {
			return nil, err
		}
		data, err := unquote(args[1])
		if err != nil {
			return nil, err
		}
		n, err := parseInt(args[2])
		if err != nil {
			return nil, err
		}
		off, err := parseInt(args[3])
		if err != nil {
			return nil, err
		}
		return types.Pwrite{FD: types.FD(fd), Data: []byte(data), Size: n, Off: off}, nil
	case "lseek":
		if err := need(3); err != nil {
			return nil, err
		}
		_, fd, err := parseHandle(args[0])
		if err != nil {
			return nil, err
		}
		off, err := parseInt(args[1])
		if err != nil {
			return nil, err
		}
		w, ok := types.ParseSeekWhence(args[2])
		if !ok {
			return nil, fmt.Errorf("lseek: bad whence %q", args[2])
		}
		return types.Lseek{FD: types.FD(fd), Off: off, Whence: w}, nil
	case "truncate":
		if err := need(2); err != nil {
			return nil, err
		}
		p, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		n, err := parseInt(args[1])
		if err != nil {
			return nil, err
		}
		return types.Truncate{Path: p, Len: n}, nil
	case "chmod":
		if err := need(2); err != nil {
			return nil, err
		}
		p, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		perm, err := parsePerm(args[1])
		if err != nil {
			return nil, err
		}
		return types.Chmod{Path: p, Perm: types.Perm(perm)}, nil
	case "chown":
		if err := need(3); err != nil {
			return nil, err
		}
		p, err := unquote(args[0])
		if err != nil {
			return nil, err
		}
		uid, err := parseInt(args[1])
		if err != nil {
			return nil, err
		}
		gid, err := parseInt(args[2])
		if err != nil {
			return nil, err
		}
		return types.Chown{Path: p, Uid: types.Uid(uid), Gid: types.Gid(gid)}, nil
	case "fsync":
		if err := need(1); err != nil {
			return nil, err
		}
		kind, fd, err := parseHandle(args[0])
		if err != nil || kind != "FD" {
			return nil, fmt.Errorf("fsync needs (FD n)")
		}
		return types.Fsync{FD: types.FD(fd)}, nil
	case "sync":
		if err := need(0); err != nil {
			return nil, err
		}
		return types.Sync{}, nil
	case "umask":
		if err := need(1); err != nil {
			return nil, err
		}
		perm, err := parsePerm(args[0])
		if err != nil {
			return nil, err
		}
		return types.Umask{Mask: types.Perm(perm)}, nil
	case "add_user_to_group":
		if err := need(2); err != nil {
			return nil, err
		}
		uid, err := parseInt(args[0])
		if err != nil {
			return nil, err
		}
		gid, err := parseInt(args[1])
		if err != nil {
			return nil, err
		}
		return types.AddUserToGroup{Uid: types.Uid(uid), Gid: types.Gid(gid)}, nil
	}
	return nil, fmt.Errorf("unknown command %q", op)
}
