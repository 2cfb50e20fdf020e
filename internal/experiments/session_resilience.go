package experiments

// Crash-safety, cancellation and failure containment for experiment
// sessions:
//
//   - AttachJournal gives the session a durable append-only log of
//     completed runs (internal/checkpoint.Journal). Every successful
//     simulation is fsynced to the journal before its result becomes
//     observable; a restarted session replays the journal into the
//     result cache and re-executes ONLY the missing (workload,
//     variant) cells. Replay never touches the executed counter, so
//     "a completed run is never re-executed" is directly testable.
//   - do() converts worker panics into *diag.WorkerPanicError, cached
//     for the panicking key: one blown-up run fails its own cell.
//   - Missing() is the explicit manifest of requested-but-failed runs
//     that KeepGoing figure assembly leaves out, session-wide; each
//     experiment's own manifest is printed by runExperiment.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// journalRecord is one gob-encoded journal payload. The first record
// of every journal is a header (Key empty, Run nil) carrying the
// session's config signature; every later record is a completed run
// keyed by the session cache key. stats.Run is plain exported values,
// so the gob round-trip is bit-exact.
type journalRecord struct {
	ConfigSig uint64
	Key       string
	Run       *stats.Run
}

// configSig hashes the result-affecting part of the session
// configuration: the scale and the machine's checkpoint.ConfigHash,
// the one rule for which simulator fields change results. Workers and
// KeepGoing change only scheduling and error handling, and ConfigHash
// leaves out the machine's scheduling knobs, so a journal written at
// -j 16 -simworkers 4 resumes cleanly at -j 1.
func (s *Session) configSig() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "scale=%d machine=%#x", s.Cfg.Scale, checkpoint.ConfigHash(s.Cfg.Machine))
	return h.Sum64()
}

// AttachJournal opens (or creates) the crash-safe run journal at path
// and replays every intact record into the session's result cache,
// returning how many runs were restored. A torn final record — the
// residue of a kill mid-append — is dropped and truncated, not fatal
// (see JournalDroppedTail); a journal written by a session with a
// different result-affecting configuration is rejected. After a
// successful attach, every run the session completes is durably
// appended, so a killed sweep restarted with the same journal
// re-executes only what is missing.
//
// Attach before running drivers: replay only fills cache keys that
// are not already present.
func (s *Session) AttachJournal(path string) (replayed int, err error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal != nil {
		return 0, errors.New("experiments: session already has a journal attached")
	}
	sig := s.configSig()
	sawHeader := false
	j, err := checkpoint.OpenJournal(path, func(payload []byte) error {
		var rec journalRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return fmt.Errorf("experiments: undecodable journal record: %w", err)
		}
		if !sawHeader {
			if rec.Key != "" || rec.Run != nil {
				return errors.New("experiments: journal has no session header record")
			}
			if rec.ConfigSig != sig {
				return fmt.Errorf("experiments: journal %s was written under a different configuration (signature %#x, this session %#x); refusing to mix results", path, rec.ConfigSig, sig)
			}
			sawHeader = true
			return nil
		}
		if rec.Key == "" || rec.Run == nil {
			return errors.New("experiments: malformed journal run record")
		}
		s.mu.Lock()
		if _, ok := s.cache[rec.Key]; !ok {
			e := &cacheEntry{done: make(chan struct{}), run: rec.Run}
			close(e.done)
			s.cache[rec.Key] = e
			replayed++
		}
		s.mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if !sawHeader {
		// Fresh (or fully torn) journal: stamp the header first, so any
		// later attach can validate compatibility.
		payload, err := encodeRecord(journalRecord{ConfigSig: sig})
		if err == nil {
			err = j.Append(payload)
		}
		if err != nil {
			j.Close()
			return 0, err
		}
	}
	s.journal = j
	s.dropped = j.DroppedTail
	return replayed, nil
}

// JournalDroppedTail reports that AttachJournal found and discarded a
// torn final record — the expected aftermath of a crash mid-append.
func (s *Session) JournalDroppedTail() bool {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.dropped
}

// CloseJournal detaches and closes the journal, surfacing any append
// error that occurred during the session. Safe to call without an
// attached journal.
func (s *Session) CloseJournal() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return s.journalErr
	}
	err := s.journal.Close()
	s.journal = nil
	if s.journalErr != nil {
		return s.journalErr
	}
	return err
}

// journalRun durably appends one completed run. Called by do() before
// the result becomes observable. A failing journal never fails the
// run that produced the result; the first append error is latched and
// reported by CloseJournal.
func (s *Session) journalRun(key string, run *stats.Run) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil || s.journalErr != nil {
		return
	}
	payload, err := encodeRecord(journalRecord{Key: key, Run: run})
	if err == nil {
		err = s.journal.Append(payload)
	}
	if err != nil {
		s.journalErr = fmt.Errorf("experiments: journal append: %w", err)
	}
}

func encodeRecord(rec journalRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Missing lists the cache keys of runs that were requested and failed
// (sorted) — the manifest of cells absent from KeepGoing partial
// output. In-flight runs are not listed.
func (s *Session) Missing() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k, e := range s.cache {
		select {
		case <-e.done:
			if e.err != nil {
				out = append(out, k)
			}
		default: // still in flight
		}
	}
	return sortedStrings(out)
}

func sortedStrings(xs []string) []string {
	m := make(map[string]struct{}, len(xs))
	for _, x := range xs {
		m[x] = struct{}{}
	}
	return sortedKeys(m)
}

// protect runs exec, converting a panic into a typed error so one
// panicking simulation aborts only its own cache entry.
func (s *Session) protect(key string, exec func() (*stats.Run, error)) (run *stats.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &diag.WorkerPanicError{
				Key:   key,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	return exec()
}
