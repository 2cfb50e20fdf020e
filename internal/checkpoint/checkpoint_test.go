package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Workload:    "CC",
		Scale:       3,
		ConfigHash:  0xDEADBEEFCAFEF00D,
		KernelIndex: 2,
		Cycle:       123456789,
		Phase:       "drain",
		Digest:      0x0123456789ABCDEF,
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	ck := testCheckpoint()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	ck := testCheckpoint()
	if err := ck.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("file round trip mismatch: got %+v want %+v", got, ck)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestCheckpointDecodeCorruption proves every class of damage is
// rejected loudly instead of misread: bad magic, an unsupported
// version, a flipped payload bit (CRC), and truncation anywhere.
func TestCheckpointDecodeCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := testCheckpoint().Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] ^= 0xFF
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(ckptMagic)] = 2 // the previous layout, with a pause schedule
		_, err := Decode(bytes.NewReader(b))
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want a distinct unsupported-version error", err)
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)-1] ^= 0x01
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt (CRC)", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 7 {
			if _, err := Decode(bytes.NewReader(good[:len(good)-cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated by %d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
}

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
// final record is dropped (reported via DroppedTail), every record
// before it replays, and the journal accepts new appends at the
// repaired offset.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jrnl")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, rec := range []string{"one", "two", "three"} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	j.Close()

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: cut into the last record's payload.
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	var got []string
	j2, err := OpenJournal(path, func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatalf("open after tear: %v", err)
	}
	if !j2.DroppedTail {
		t.Error("DroppedTail = false, want true")
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("replayed %q, want [one two]", got)
	}
	if err := j2.Append([]byte("four")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	j2.Close()

	got2 := journalRecords(t, path)
	want := []string{"one", "two", "four"}
	if len(got2) != len(want) {
		t.Fatalf("after repair+append: %d records, want %d", len(got2), len(want))
	}
	for i, w := range want {
		if string(got2[i]) != w {
			t.Errorf("record %d = %q, want %q", i, got2[i], w)
		}
	}
}

// TestJournalBadHeaderFatal: unlike a torn tail, a file that is not a
// journal at all must be rejected, not silently reinitialized.
func TestJournalBadHeaderFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jrnl")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}
