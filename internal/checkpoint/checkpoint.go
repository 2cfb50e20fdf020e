// Package checkpoint makes long simulations killable and resumable.
//
// A checkpoint is NOT a serialized machine image. The simulator's
// kernels are execution-driven Go closures (programs compute addresses
// with captured functions; in-flight requests carry completion
// callbacks into warp state), so mid-flight state cannot be written to
// disk literally. What CAN be relied on is the engine's determinism:
// the same configuration and workload replayed in a fresh process
// passes through bit-identical machine states at every cycle (the
// property the 144-row golden-fingerprint table pins). A checkpoint
// therefore records a *coordinate* — workload identity, configuration
// hash, completed-kernel count and the global cycle — plus an FNV-1a
// digest of the complete machine state at that coordinate. Restore
// builds a fresh machine, deterministically replays to the recorded
// cycle, and verifies the digest before continuing: restore is not
// "approximately the same run", it is the same run, and the digest
// proves it (and catches misuse: wrong binary, wrong config, wrong
// workload, or a determinism regression).
//
// The package also provides the versioned binary codec for checkpoint
// files and the crash-safe append-only journal the experiments layer
// uses to persist completed runs (see Journal).
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

// Checkpoint is the saved coordinate of a suspended execution.
type Checkpoint struct {
	// Workload and Scale identify what was running.
	Workload string
	Scale    int
	// ConfigHash pins the full simulator configuration (protocol,
	// consistency, geometry, leases, fault plan); restore refuses a
	// mismatched config rather than replay a different machine.
	ConfigHash uint64
	// KernelIndex counts kernels that had fully completed.
	KernelIndex int
	// Cycle is the global clock at suspension.
	Cycle uint64
	// Phase is "idle" (suspended between kernels), "run" or "drain".
	Phase string
	// Digest is the machine-state digest at the coordinate; restore
	// replays to Cycle and verifies it reproduced this exact state.
	Digest uint64
}

// ConfigHash canonically hashes the result-affecting part of a
// simulator configuration: the one rule, for checkpoints and for the
// experiment journal alike, of which fields change results. The
// Observer is excluded: it receives events but never feeds state back
// into the simulation, so it does not affect the run's trajectory.
// SimWorkers and ProfileLabels are excluded for the same reason — they
// schedule how the engine spreads its work (or annotate profiles),
// never what the machine computes, so a checkpoint taken at one worker
// count restores under any other. SlackCycles is included: a nonzero
// slack changes the machine's cycle-by-cycle trajectory (boundedly,
// functionally equivalently — see sim/relaxed.go), so a checkpoint
// restores only under the slack that took it. Every other field of
// sim.Config is a plain value, so the rendering is
// process-independent.
func ConfigHash(cfg sim.Config) uint64 {
	cfg.Observer = nil
	cfg.SimWorkers = 0
	cfg.ProfileLabels = false
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// Binary codec: magic, version, and a CRC-framed gob payload. The
// version gates decoding — a future layout bumps codecVersion and old
// binaries reject new files loudly instead of misreading them.
const (
	ckptMagic    = "GTSCCKPT"
	codecVersion = 3        // v3: dropped v2's pause schedule (pausing is pure suspension)
	maxFrame     = 64 << 20 // sanity bound on a frame length field
)

// ErrCorrupt reports that a checkpoint or journal frame failed its
// integrity check (bad magic, impossible length, CRC mismatch, or a
// torn tail).
var ErrCorrupt = errors.New("checkpoint: corrupt data")

// Encode writes the checkpoint to w in the versioned binary format.
func (ck *Checkpoint) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, ckptMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(codecVersion)); err != nil {
		return err
	}
	return writeFrame(w, ck.marshal())
}

// marshal renders the checkpoint payload. A hand-rolled fixed layout
// (not gob) keeps the format stable across Go versions and trivially
// versionable.
func (ck *Checkpoint) marshal() []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.Workload)))
	buf = append(buf, ck.Workload...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Scale))
	buf = binary.LittleEndian.AppendUint64(buf, ck.ConfigHash)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.KernelIndex))
	buf = binary.LittleEndian.AppendUint64(buf, ck.Cycle)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.Phase)))
	buf = append(buf, ck.Phase...)
	return binary.LittleEndian.AppendUint64(buf, ck.Digest)
}

func (ck *Checkpoint) unmarshal(buf []byte) error {
	str := func() (string, bool) {
		if len(buf) < 4 {
			return "", false
		}
		n := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < n {
			return "", false
		}
		s := string(buf[:n])
		buf = buf[n:]
		return s, true
	}
	u64 := func() (uint64, bool) {
		if len(buf) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		return v, true
	}
	var ok bool
	if ck.Workload, ok = str(); !ok {
		return ErrCorrupt
	}
	scale, ok := u64()
	if !ok {
		return ErrCorrupt
	}
	ck.Scale = int(scale)
	if ck.ConfigHash, ok = u64(); !ok {
		return ErrCorrupt
	}
	ki, ok := u64()
	if !ok {
		return ErrCorrupt
	}
	ck.KernelIndex = int(ki)
	if ck.Cycle, ok = u64(); !ok {
		return ErrCorrupt
	}
	if ck.Phase, ok = str(); !ok {
		return ErrCorrupt
	}
	if ck.Digest, ok = u64(); !ok {
		return ErrCorrupt
	}
	return nil
}

// Decode reads a checkpoint written by Encode, validating magic,
// version and CRC.
func Decode(r io.Reader) (*Checkpoint, error) {
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if string(magic) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: short version: %v", ErrCorrupt, err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("checkpoint: unsupported codec version %d (this binary speaks %d)", version, codecVersion)
	}
	payload, err := readFrame(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: missing payload frame", ErrCorrupt)
		}
		return nil, err
	}
	ck := &Checkpoint{}
	if err := ck.unmarshal(payload); err != nil {
		return nil, err
	}
	return ck, nil
}

// SaveFile atomically writes the checkpoint to path (tmp + rename), so
// a crash mid-write never leaves a torn checkpoint behind.
func (ck *Checkpoint) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := ck.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a checkpoint file written by SaveFile.
func LoadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

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
