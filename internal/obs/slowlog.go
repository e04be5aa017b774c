package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog writes queries slower than a threshold as JSON lines. A nil
// *SlowLog is the disabled state: Slow reports false and Record
// no-ops, so callers need no separate branch. Safe for concurrent use
// (one mutex serializes line writes).
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	logged    atomic.Int64
	now       func() time.Time // injectable clock (tests)
}

// NewSlowLog returns a slow-query log writing entries for queries at
// or above threshold to w.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold, now: time.Now}
}

// Slow reports whether a query of duration d should be logged.
func (l *SlowLog) Slow(d time.Duration) bool {
	return l != nil && d >= l.threshold
}

// Logged returns how many entries were written.
func (l *SlowLog) Logged() int64 {
	if l == nil {
		return 0
	}
	return l.logged.Load()
}

// Record writes one entry if q.WallMS meets the threshold, filling
// the timestamp and truncating oversized query text. Call it
// unconditionally after each query; the threshold check is inside.
func (l *SlowLog) Record(q QueryRecord) {
	if l == nil || time.Duration(q.WallMS*float64(time.Millisecond)) < l.threshold {
		return
	}
	q.stamp(l.now())
	line, err := json.Marshal(q)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(line)
	l.mu.Unlock()
	l.logged.Add(1)
}
