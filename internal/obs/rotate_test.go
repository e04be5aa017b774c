package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRotatingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.jsonl")
	w, err := NewRotatingWriter(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	line := bytes.Repeat([]byte("x"), 39)
	line = append(line, '\n') // 40 bytes per line
	for i := 0; i < 4; i++ {  // 160 bytes total: one rotation at the 3rd write
		if _, err := w.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	if len(cur)+len(old) != 160 {
		t.Errorf("bytes across generations = %d + %d, want 160 total", len(cur), len(old))
	}
	if len(cur) > 100 || len(old) > 100 {
		t.Errorf("generation exceeds cap: cur=%d old=%d", len(cur), len(old))
	}
	// No torn lines at generation boundaries.
	for name, b := range map[string][]byte{"current": cur, "rotated": old} {
		if len(b)%40 != 0 {
			t.Errorf("%s generation has a torn line: %d bytes", name, len(b))
		}
	}

	// Further rotations replace .1 (dropping the oldest generation)
	// rather than accumulating .2, .3, ... — worst-case disk use stays
	// ~2x the cap.
	for i := 0; i < 6; i++ {
		if _, err := w.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".2"); !os.IsNotExist(err) {
		t.Errorf("unexpected second generation: %v", err)
	}
	for _, p := range []string{path, path + ".1"} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 100 {
			t.Errorf("%s exceeds cap: %d bytes", p, len(b))
		}
	}
}

func TestRotatingWriterOversizedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.jsonl")
	w, err := NewRotatingWriter(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := []byte(strings.Repeat("y", 50) + "\n")
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != len(big) {
		t.Errorf("oversized entry split or dropped: %d bytes", len(cur))
	}
}

func TestNewRotatingSlowLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.jsonl")
	l, w, err := NewRotatingSlowLog(path, time.Millisecond, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	l.Record(QueryRecord{Source: "server", WallMS: 5, Query: "SELECT 1"})
	l.Record(QueryRecord{Source: "server", WallMS: 0.1, Query: "fast"}) // below threshold
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Logged(); got != 1 {
		t.Errorf("Logged = %d, want 1", got)
	}
	if !bytes.Contains(b, []byte(`"SELECT 1"`)) || bytes.Contains(b, []byte(`"fast"`)) {
		t.Errorf("log content wrong: %s", b)
	}
}
