package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func journalRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	j, err := OpenJournal(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	return got
}

// writeJournal creates a journal at path holding recs and returns its
// bytes.
func writeJournal(t *testing.T, path string, recs ...string) []byte {
	t.Helper()
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, rec := range recs {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkTornTail opens a damaged journal and requires that the damaged
// record and everything after it were dropped as a torn tail (reported
// via DroppedTail), that exactly want replayed, and that the journal
// accepts new appends at the repaired offset — so a sweep reruns
// exactly the runs whose records were lost.
func checkTornTail(t *testing.T, path string, want []string) {
	t.Helper()
	var got []string
	j, err := OpenJournal(path, func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatalf("open after damage: %v", err)
	}
	if !j.DroppedTail {
		t.Error("DroppedTail = false, want true")
	}
	if !slices.Equal(got, want) {
		t.Errorf("replayed %q, want %q", got, want)
	}
	if err := j.Append([]byte("four")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	j.Close()

	var after []string
	for _, p := range journalRecords(t, path) {
		after = append(after, string(p))
	}
	if want := append(slices.Clip(want), "four"); !slices.Equal(after, want) {
		t.Errorf("after repair+append: %q, want %q", after, want)
	}
}

// TestCheckpointDecodeCorruption proves every class of damage to a
// journal is handled loudly instead of misread: bad magic and an
// unsupported version refuse the file, a flipped payload bit (CRC) and
// a truncation inside the records drop the damaged record and
// everything after it as a torn tail, and a truncation inside the
// header refuses the file.
func TestCheckpointDecodeCorruption(t *testing.T) {
	recs := []string{"one", "two", "three"}
	// Byte offset of the second record's payload: the 12-byte header,
	// the first record's 8-byte frame header and 3-byte payload, then
	// the second record's frame header.
	const header = len(jrnlMagic) + 4
	const secondPayload = header + 8 + 3 + 8

	t.Run("bad magic", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.jrnl")
		b := writeJournal(t, path, recs...)
		b[0] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenJournal(path, func([]byte) error { t.Error("replayed a record behind a bad magic"); return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.jrnl")
		b := writeJournal(t, path, recs...)
		b[len(jrnlMagic)] = journalVersion + 1
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenJournal(path, func([]byte) error { t.Error("replayed a record of another version"); return nil })
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want a distinct unsupported-version error", err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, b) {
			t.Error("refused journal was modified")
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.jrnl")
		b := writeJournal(t, path, recs...)
		b[secondPayload] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		checkTornTail(t, path, recs[:1])
	})
	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		good := writeJournal(t, filepath.Join(dir, "good.jrnl"), recs...)
		// ends[i] is the file size once records 0..i-1 are complete.
		ends := []int{header}
		for _, rec := range recs {
			ends = append(ends, ends[len(ends)-1]+8+len(rec))
		}
		for size := 1; size < len(good); size++ {
			path := filepath.Join(dir, "cut.jrnl")
			if err := os.WriteFile(path, good[:size], 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			j, err := OpenJournal(path, func(p []byte) error { got = append(got, string(p)); return nil })
			if size < header {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut to %d bytes (inside the header): err = %v, want ErrCorrupt", size, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("cut to %d bytes: %v", size, err)
			}
			j.Close()
			intact := 0
			for intact < len(recs) && ends[intact+1] <= size {
				intact++
			}
			if !slices.Equal(got, recs[:intact]) {
				t.Fatalf("cut to %d bytes: replayed %q, want %q", size, got, recs[:intact])
			}
			if torn := size != ends[intact]; j.DroppedTail != torn {
				t.Fatalf("cut to %d bytes: DroppedTail = %v, want %v", size, j.DroppedTail, torn)
			}
		}
	})
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jrnl")
	j, err := OpenJournal(path, func([]byte) error { t.Fatal("fresh journal replayed records"); return nil })
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := [][]byte{[]byte("alpha"), []byte("bravo"), {}, []byte("charlie")}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got := journalRecords(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestJournalCleanReopen pins the clean-EOF path: reopening a
// journal whose last append completed must NOT report (or truncate) a
// torn tail — every record survives arbitrarily many reopen cycles.
func TestJournalCleanReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jrnl")
	for round := 0; round < 3; round++ {
		n := 0
		j, err := OpenJournal(path, func([]byte) error { n++; return nil })
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		if j.DroppedTail {
			t.Fatalf("round %d: clean journal reported a torn tail", round)
		}
		if n != round {
			t.Fatalf("round %d replayed %d records, want %d", round, n, round)
		}
		if err := j.Append([]byte{byte(round)}); err != nil {
			t.Fatalf("round %d append: %v", round, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
}

// TestJournalTornTail simulates a crash mid-append: the truncated
// final record is dropped, every record before it replays, and the
// journal accepts new appends at the repaired offset.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jrnl")
	b := writeJournal(t, path, "one", "two", "three")
	// Tear the tail: cut into the last record's payload.
	if err := os.Truncate(path, int64(len(b)-2)); err != nil {
		t.Fatal(err)
	}
	checkTornTail(t, path, []string{"one", "two"})
}

// TestJournalBadHeaderFatal: unlike a torn tail, a file that is not a
// journal at all must be refused, not silently reinitialized.
func TestJournalBadHeaderFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jrnl")
	foreign := []byte("definitely not a journal")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, foreign) {
		t.Error("refused file was modified")
	}
}
