package mem

import (
	"slices"
	"testing"
)

// FuzzTable drives a Table and a Go map through the same operations
// and checks, after every step, the operation's result, Len and the
// sorted keys. Each pair of input bytes is one operation: the first
// byte's low two bits pick Put, Delete or Get, and 0xff alone picks
// Clear, so runs grow long; the second byte is the key. Keys fall in a small space whose hashes crowd the first
// table sizes, so probe runs collide and wrap around the slot array,
// and deletions shift entries back across the wrap.
func FuzzTable(f *testing.F) {
	put, del, get := byte(0), byte(1), byte(2)
	// Keys 0..7 into the 8-slot table: collisions, then growth.
	f.Add([]byte{put, 0, put, 1, put, 2, put, 3, put, 4, put, 5, get, 3, del, 1, get, 5})
	// A run that wraps past the last slot, then a delete inside it.
	f.Add(wrapCase())
	// Growth through several doublings, then deletion of every third key.
	var grow []byte
	for k := 0; k < 200; k++ {
		grow = append(grow, put, byte(k))
	}
	for k := 0; k < 200; k += 3 {
		grow = append(grow, del, byte(k), get, byte(k+1))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[BlockAddr, int]
		ref := map[BlockAddr]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, k := ops[i], BlockAddr(ops[i+1])
			switch {
			case op&3 == 0:
				tab.Put(k, i)
				ref[k] = i
			case op&3 == 1:
				v, ok := tab.Delete(k)
				rv, rok := ref[k]
				delete(ref, k)
				if v != rv || ok != rok {
					t.Fatalf("step %d: Delete(%d) = %d, %t; want %d, %t", i/2, k, v, ok, rv, rok)
				}
			case op == 0xff:
				tab.Clear()
				clear(ref)
			default:
				v, ok := tab.Get(k)
				rv, rok := ref[k]
				if v != rv || ok != rok || tab.Has(k) != rok {
					t.Fatalf("step %d: Get(%d) = %d, %t; want %d, %t", i/2, k, v, ok, rv, rok)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, want %d", i/2, tab.Len(), len(ref))
			}
			want := make([]BlockAddr, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			slices.Sort(want)
			if got := tab.Keys(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Keys %v, want %v", i/2, got, want)
			}
		}
		n := 0
		tab.Each(func(k BlockAddr, v int) {
			if rv, ok := ref[k]; !ok || rv != v {
				t.Fatalf("Each: key %d holds %d, want %d", k, v, rv)
			}
			n++
		})
		if n != len(ref) {
			t.Fatalf("Each visited %d entries, want %d", n, len(ref))
		}
	})
}

// wrapCase returns operations that fill a probe run across the end of
// an 8-slot table and then delete an entry inside it: keys whose home
// is the last slot, then keys whose home is the first.
func wrapCase() []byte {
	var t Table[BlockAddr, int]
	t.Put(0, 0) // size the table so home reports the 8-slot hash
	var last, first []byte
	for k := 1; k < 256 && (len(last) < 2 || len(first) < 1); k++ {
		switch t.home(BlockAddr(k)) {
		case 7:
			last = append(last, byte(k))
		case 0:
			first = append(first, byte(k))
		}
	}
	ops := []byte{}
	for _, k := range append(last[:2], first[0]) {
		ops = append(ops, 0, k)
	}
	return append(ops, 1, last[0], 2, last[1], 2, first[0])
}
