// Package checkpoint is the crash-safe journal of an experiment sweep:
// the layer that makes a long gtscbench sweep killable and resumable.
// The experiments session appends every completed run to the journal
// before its result becomes observable, and a restarted sweep replays
// the journal and re-executes only the runs it does not hold.
//
// A single simulation is not checkpointed. The simulator's kernels are
// execution-driven Go closures, so a machine in flight cannot be
// written to disk, and a checkpoint that replays a fresh machine from
// cycle 0 saves no work over rerunning it; a killed gtscsim run is
// rerun.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"

	"github.com/gtsc-sim/gtsc/internal/sim"
)

// On-disk layout: magic, a u32 version, then length/CRC32-framed
// records. The version gates reading — a future layout bumps
// journalVersion and old binaries refuse new files loudly instead of
// misreading them. Version 3 is what older binaries wrote for this
// same layout, so their journals still open.
const (
	jrnlMagic      = "GTSCJRNL"
	journalVersion = 3
	maxFrame       = 64 << 20 // sanity bound on a frame length field
)

// ErrCorrupt reports that a journal header or frame failed its
// integrity check (bad magic, impossible length, CRC mismatch, or a
// torn tail).
var ErrCorrupt = errors.New("checkpoint: corrupt data")

// ConfigHash canonically hashes the result-affecting part of a
// simulator configuration: the one rule of which fields change
// results, and so which journals a session may replay. The Observer is
// excluded: it receives events but never feeds state back into the
// simulation, so it does not affect the run's trajectory. SimWorkers
// and ProfileLabels are excluded for the same reason — they schedule
// how the engine spreads its work (or annotate profiles), never what
// the machine computes, so a journal written at one worker count
// resumes under any other. SlackCycles is included: a nonzero slack
// changes the machine's cycle-by-cycle trajectory (boundedly,
// functionally equivalently — see sim/relaxed.go). Every other field
// of sim.Config is a plain value, so the rendering is
// process-independent, and journals written by older binaries keep
// their signature as long as the rendering does.
func ConfigHash(cfg sim.Config) uint64 {
	cfg.Observer = nil
	cfg.SimWorkers = 0
	cfg.ProfileLabels = false
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// Journal is a crash-safe append-only record log. Each record is a
// length/CRC-framed opaque payload; appends are synced to disk before
// returning, so a record that Append reported durable survives a kill
// at any later point. A torn tail — the partial record a crash
// mid-append leaves behind — is detected on open by its short frame or
// CRC mismatch, dropped, and truncated away; every record before it
// replays intact. The experiments session journals completed runs
// through this (keyed by the result-cache key) so a restarted sweep
// re-executes only what is missing.
type Journal struct {
	f *os.File
	// DroppedTail reports that OpenJournal found and discarded a torn
	// final record (the expected aftermath of a crash mid-append).
	DroppedTail bool
}

// OpenJournal opens (or creates) the journal at path and replays every
// intact existing record, in append order, through replay. A torn
// final record is truncated, not fatal; a corrupt header (wrong magic
// or version) is fatal — the file is not a journal. The returned
// journal is positioned for appends.
func OpenJournal(path string, replay func(payload []byte) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f}
	if err := j.init(replay); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

func (j *Journal) init(replay func(payload []byte) error) error {
	info, err := j.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		if _, err := io.WriteString(j.f, jrnlMagic); err != nil {
			return err
		}
		if err := binary.Write(j.f, binary.LittleEndian, uint32(journalVersion)); err != nil {
			return err
		}
		return j.f.Sync()
	}
	magic := make([]byte, len(jrnlMagic))
	if _, err := io.ReadFull(j.f, magic); err != nil || string(magic) != jrnlMagic {
		return fmt.Errorf("%w: not a journal (bad magic)", ErrCorrupt)
	}
	var version uint32
	if err := binary.Read(j.f, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("%w: not a journal (short version)", ErrCorrupt)
	}
	if version != journalVersion {
		return fmt.Errorf("checkpoint: unsupported journal version %d (this binary speaks %d)", version, journalVersion)
	}
	// Replay records until the clean end of the file or the torn tail.
	offset := int64(len(jrnlMagic)) + 4
	for {
		payload, err := readFrame(j.f)
		if errors.Is(err, io.EOF) {
			break // clean end: the last append completed
		}
		if err != nil {
			// A partial or corrupt trailing frame is the residue of a
			// crash mid-append: truncate to the last intact record and
			// continue from there.
			if err := j.f.Truncate(offset); err != nil {
				return err
			}
			j.DroppedTail = true
			break
		}
		if err := replay(payload); err != nil {
			return err
		}
		offset += 8 + int64(len(payload))
	}
	_, err = j.f.Seek(offset, io.SeekStart)
	return err
}

// Append durably writes one record: the frame is written and fsynced
// before Append returns.
func (j *Journal) Append(payload []byte) error {
	if err := writeFrame(j.f, payload); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// writeFrame emits one length/CRC-framed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, validating length and CRC. A clean end
// of input — zero bytes where the next frame would start — returns
// io.EOF untouched, so callers can tell "no more frames" from "torn
// frame" (any partial or corrupt frame reports ErrCorrupt).
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short frame header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds bound", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short frame payload: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, nil
}
