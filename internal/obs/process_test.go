package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// sampleValue reads an unlabelled sample's value off a text
// exposition: the line "name value". ok is false when no such line
// exists or its value does not parse.
func sampleValue(expo, name string) (float64, bool) {
	for _, line := range strings.Split(expo, "\n") {
		if v, found := strings.CutPrefix(line, name+" "); found {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

func TestRegisterProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	if v, ok := sampleValue(expo, "go_goroutines"); !ok || v < 1 {
		t.Errorf("go_goroutines = %v ok=%v, want >= 1", v, ok)
	}
	if v, ok := sampleValue(expo, "go_heap_alloc_bytes"); !ok || v <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v ok=%v, want > 0", v, ok)
	}
	if v, ok := sampleValue(expo, "go_gc_pause_seconds_total"); !ok || v < 0 {
		t.Errorf("go_gc_pause_seconds_total = %v ok=%v, want >= 0", v, ok)
	}
	if v, ok := sampleValue(expo, "process_uptime_seconds"); !ok || v < 0 {
		t.Errorf("process_uptime_seconds = %v ok=%v, want >= 0", v, ok)
	}
	if !strings.Contains(expo, "# TYPE go_goroutines gauge") {
		t.Errorf("missing TYPE line:\n%s", buf.String())
	}

	// Nil registry: registration is a no-op, not a panic.
	RegisterProcessMetrics(nil)
}
