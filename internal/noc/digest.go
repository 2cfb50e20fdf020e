package noc

import (
	"fmt"
	"io"
)

// DigestState writes a canonical, process-independent rendering of the
// interconnect: per-port queues in port order, and the full in-flight
// wire sorted by (arrival, sequence) — unlike DumpState's diagnostic
// view, nothing is capped. The sequence counter is included because it
// seeds future arrival ordering.
func (n *Network) DigestState(w io.Writer) {
	fmt.Fprintf(w, "noc now=%d seq=%d inflight=%d bis=%d\n",
		n.now, n.seqCtr, n.inFlight, n.mesh.bisFree)
	digestPorts(w, "toL2", n.toL2)
	digestPorts(w, "toL1", n.toL1)
	n.wire.each(func(a *arrival) bool {
		fmt.Fprintf(w, "wire %d %d %t ", a.at, a.seq, a.toL2)
		a.msg.DigestInto(w)
		return true
	})
}

func digestPorts(w io.Writer, label string, ports []*port) {
	for i, p := range ports {
		if p.len() == 0 && p.busyUntil == 0 {
			continue
		}
		fmt.Fprintf(w, "port %s[%d] busy=%d\n", label, i, p.busyUntil)
		for j := p.head; j < len(p.q); j++ {
			fmt.Fprintf(w, "q enq=%d ", p.q[j].enq)
			p.q[j].msg.DigestInto(w)
		}
	}
}
