package nocoh

import "io"

// DigestState implements coherence.L1 for the non-coherent L1.
func (l *L1Simple) DigestState(w io.Writer) {
	l.Port.DigestState(w)
	l.array.DigestInto(w)
}
