package cache

import (
	"fmt"
	"io"
)

// DigestInto writes a canonical rendering of every valid line: way
// position, tag, dirty bit, LRU stamp, protocol metadata and data.
// Lines are visited in array order (set-major), which is stable and
// identical across processes. The metadata payload M must be a plain
// value type (no pointers, maps or funcs) so its %+v rendering is
// process-independent — every protocol's meta in this codebase is.
func (a *Array[M]) DigestInto(w io.Writer) {
	for set, row := range a.rows {
		for way := range row {
			l := &row[way]
			if !l.Valid {
				continue
			}
			fmt.Fprintf(w, "ln %d %#x d=%t u=%d m=%+v %x\n",
				set*a.ways+way, uint64(l.Addr), l.Dirty, l.LastUse, l.Meta, l.Data.Words)
		}
	}
}

// DigestInto writes a canonical rendering of the MSHR table in
// ascending block order. Waiter payloads carry completion callbacks
// (func values), which cannot be rendered process-independently; the
// digest therefore records the waiter count only. The waiters' effect
// on the machine is still covered: the warps they will wake are
// digested through the SM state, and replay reproduces the callbacks
// themselves.
func (m *MSHR[W]) DigestInto(w io.Writer) {
	m.ForEach(func(e *MSHREntry[W]) {
		fmt.Fprintf(w, "mshr %#x w=%d iss=%t inf=%d id=%d\n",
			uint64(e.Block), len(e.Waiters), e.Issued, e.InFlight, e.ReqID)
	})
}
