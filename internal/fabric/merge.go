package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// ErrMalformedLine marks a delivered line that violates NDJSON framing
// (empty, missing its trailing newline, or carrying an interior
// newline) — the shape of a torn or spliced delivery. The rejection is
// NOT sticky: the bad delivery is refused, the merger stays healthy,
// and a later intact delivery of the same point merges normally.
var ErrMalformedLine = errors.New("fabric: malformed result line")

// Merger folds concurrently arriving worker result lines back into
// canonical grid order. It accepts (index, line) pairs for the window
// [start, end), emits each index's line exactly once, in index order,
// and dedupes duplicate deliveries — the normal outcome of a stolen
// range racing its original dispatch. Point seeds are content-keyed,
// so every copy of a line carries identical bytes and first-wins
// deduplication is deterministic down to the byte.
//
// The merge invariants the fuzz test pins down:
//
//  1. order:    emitted indices are start, start+1, ..., end-1
//  2. exactly-once: no index is emitted twice, none is skipped
//  3. no invention: an emitted line was Added for that index
type Merger struct {
	mu      sync.Mutex
	next    int // lowest index not yet emitted
	start   int
	end     int
	buffer  map[int][]byte // accepted, not yet emitted (out-of-order arrivals)
	free    [][]byte       // retired line buffers, reused by later accepts
	emit    func(line []byte) error
	flush   func()                          // after each drained run of emits; may be nil
	hook    func(i int, line []byte) []byte // fault-injection intake hook
	err     error                           // sticky first emit error
	emitted int
}

// NewMerger returns a merger for the window [start, end) whose
// in-order output is handed to emit. emit is called with the merger's
// internal serialization — never concurrently — and the line bytes it
// receives are owned by the merger: they are recycled for later
// deliveries as soon as emit returns, so a consumer that needs them
// past its own return must copy.
func NewMerger(start, end int, emit func(line []byte) error) *Merger {
	return &Merger{next: start, start: start, end: end, buffer: make(map[int][]byte), emit: emit}
}

// SetHook installs a line-intake hook, called on every Add before
// validation with the point index and the delivered bytes; whatever it
// returns is merged in the line's place. It exists for fault injection
// (chaos.Injector.LineHook tears or corrupts deliveries on their way
// in) and must be set before the first Add.
func (m *Merger) SetHook(hook func(i int, line []byte) []byte) {
	m.mu.Lock()
	m.hook = hook
	m.mu.Unlock()
}

// Add accepts the line of grid point i. It returns fresh=false when
// the point was already delivered by another dispatch (the duplicate
// is dropped), ErrMalformedLine (non-sticky) for a torn delivery, and
// the sticky emit error once the downstream consumer has failed. The
// line is copied: callers may reuse their read buffer.
func (m *Merger) Add(i int, line []byte) (fresh bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return false, m.err
	}
	if i < m.start || i >= m.end {
		return false, fmt.Errorf("fabric: point index %d outside merge window [%d, %d)", i, m.start, m.end)
	}
	if m.hook != nil {
		line = m.hook(i, line)
	}
	if n := len(line); n == 0 || line[n-1] != '\n' {
		return false, fmt.Errorf("%w: point %d: no trailing newline in %d bytes", ErrMalformedLine, i, n)
	} else if bytes.IndexByte(line[:n-1], '\n') >= 0 {
		return false, fmt.Errorf("%w: point %d: interior newline", ErrMalformedLine, i)
	}
	if i < m.next {
		return false, nil // already emitted
	}
	if _, ok := m.buffer[i]; ok {
		return false, nil // already accepted, awaiting its turn
	}
	// Copy into a pooled buffer: steady-state merging recycles the
	// buffers of already-emitted lines instead of allocating per point.
	var buf []byte
	if n := len(m.free); n > 0 {
		buf, m.free = m.free[n-1][:0], m.free[:n-1]
	}
	m.buffer[i] = append(buf, line...)
	drained := false
	for {
		line, ok := m.buffer[m.next]
		if !ok {
			break
		}
		if err := m.emit(line); err != nil {
			m.err = err
			return true, err
		}
		delete(m.buffer, m.next)
		m.free = append(m.free, line)
		m.next++
		m.emitted++
		drained = true
	}
	if drained && m.flush != nil {
		m.flush()
	}
	return true, nil
}

// FirstGap returns the first index in [from, to) that has not been
// accepted yet, or `to` when the whole interval is covered. Dispatch
// accounting uses it to requeue exactly the unfinished suffix of a
// range: deliveries stream in index order, so a range's accepted set
// is always a prefix and its gap a suffix.
func (m *Merger) FirstGap(from, to int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := from; i < to; i++ {
		if i < m.next {
			continue
		}
		if _, ok := m.buffer[i]; !ok {
			return i
		}
	}
	return to
}

// Done reports whether every index of the window has been emitted.
func (m *Merger) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next >= m.end
}

// Err returns the sticky downstream error, if any.
func (m *Merger) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
