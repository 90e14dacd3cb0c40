package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzVerifyDir writes each input as a journal's one segment file and
// verifies the directory. Whatever the bytes, VerifyDir must not panic, and
// its result must be self-consistent: the chain is intact exactly when no
// reason is given, every verified record is counted (the chain starts at
// seq 1, so Records == LastSeq), and a failure names its seq — the seq a
// misplaced record carries for a sequence gap (as TestVerifyReorderedSegment
// pins), the one the chain expected next for anything else.
func FuzzVerifyDir(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append("test", []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(seg, []byte("\n"))
	f.Add(seg)
	f.Add(bytes.Join([][]byte{lines[1], lines[0], lines[2]}, nil)) // reordered
	f.Add(seg[:len(seg)/2])                                        // torn tail
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res := VerifyDir(dir)
		if res.ChainOK != (res.Reason == "") {
			t.Fatalf("ChainOK %v with reason %q", res.ChainOK, res.Reason)
		}
		if res.Records != res.LastSeq {
			t.Fatalf("records %d, last seq %d", res.Records, res.LastSeq)
		}
		if res.ChainOK {
			return
		}
		if strings.Contains(res.Reason, "sequence gap") {
			if found := fmt.Sprintf("got %d after %d", res.BadSeq, res.LastSeq); !strings.Contains(res.Reason, found) {
				t.Fatalf("gap reported at seq %d after %d: %s", res.BadSeq, res.LastSeq, res.Reason)
			}
		} else if res.BadSeq != res.LastSeq+1 {
			t.Fatalf("bad seq %d after last seq %d: %s", res.BadSeq, res.LastSeq, res.Reason)
		}
	})
}
