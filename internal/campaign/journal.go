package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// Checkpoint journal: crash-safe resume for paper-scale campaigns.
//
// A journal is an append-only JSONL file. The first line is a header
// binding the file to one campaign (a signature over the resolved runs and
// timing profile); every following line records one finished run — its
// canonical index, a digest of its result, and the result itself. On
// restart, Execute with the reopened journal replays the persisted results
// and the workers fly only the remainder; because results round-trip
// bit-exactly (scenario/codec.go) and aggregation is exact and
// order-independent (scenario/fixed.go), the resumed report is
// bit-identical to an uninterrupted run.
//
// Crash model: appends are a single buffered write flushed and fsynced per
// run, so the only possible damage from a crash mid-append is one
// truncated final line. Open detects such a tail (bad JSON, a digest
// mismatch, or a missing newline), drops it, and truncates the file back
// to the last durable entry; the dropped run simply flies again. Damage
// anywhere else in the file is not a crash signature — that is real
// corruption, and Open refuses it rather than resuming from a lie.

// journalVersion is bumped when the line format changes incompatibly.
const journalVersion = 1

// journalHeader is line one of the file.
type journalHeader struct {
	V     int    `json:"v"`
	Spec  string `json:"spec"`
	Total int    `json:"total"`
}

// A journal line after the header is one RunEntry (merge.go) — the same
// wire shape a coordinator worker uploads, so streaming a journal to a
// coordinator is a byte-for-byte replay of its entries.

// Journal persists finished run indices and results for one campaign.
// Methods are safe for concurrent use by campaign workers.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	path      string
	sig       string
	total     int
	completed map[int]scenario.Result
}

// Signature returns a hex digest binding a journal (or a result file) to
// one exact campaign: the resolved run list — cells, canonical order, and
// per-run seeds, so a custom Spec.Seed is captured by value — plus the
// timing profile. Configure is a function and cannot be hashed, so it is
// outside the signature. Hooks that only observe need nothing more, but
// the HIL and field campaigns' hooks change results: their identity
// travels beside the signature as the campaign's name in internal/catalog,
// which a coordinator lease carries as its profile.
func (s Spec) Signature() (string, error) {
	runs, err := s.Runs()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Canonical timing: an inactive fault plan encodes as absent, so "no
	// faults" written as nil and as an empty Plan sign identically.
	if err := enc.Encode(s.Timing.Canonical()); err != nil {
		return "", err
	}
	for _, ru := range runs {
		if err := enc.Encode(ru); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// OpenJournal opens (creating if absent) the checkpoint journal at path
// for the given spec. Reopening an existing journal validates that it
// belongs to the same campaign and loads every durable entry; a truncated
// trailing line from a crash mid-append is dropped and the file repaired.
func OpenJournal(path string, spec Spec) (*Journal, error) {
	sig, err := spec.Signature()
	if err != nil {
		return nil, err
	}
	// O_APPEND hardens against two processes resuming the same journal
	// concurrently: every Append lands whole at the then-current EOF
	// instead of both processes overwriting one offset, so the worst case
	// is duplicate entries (load dedups by index, digests prove them
	// identical) rather than interleaved garbage that would poison every
	// later resume. Truncate-based tail repair is unaffected by O_APPEND.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	j := &Journal{
		f:         f,
		path:      path,
		sig:       sig,
		total:     spec.Total(),
		completed: make(map[int]scenario.Result),
	}
	if err := j.load(); err != nil {
		f.Close()
		return nil, err
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

// load parses the file, populates completed, repairs a torn tail, and
// leaves the write offset at the end of the durable prefix.
func (j *Journal) load() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("campaign: read journal: %w", err)
	}
	if len(data) == 0 {
		hdr, err := json.Marshal(journalHeader{V: journalVersion, Spec: j.sig, Total: j.total})
		if err != nil {
			return err
		}
		hdr = append(hdr, '\n')
		if _, err := j.f.Write(hdr); err != nil {
			return fmt.Errorf("campaign: write journal header: %w", err)
		}
		return j.f.Sync()
	}

	// Split into lines; a file not ending in '\n' has a torn final line.
	lines := bytes.Split(data, []byte("\n"))
	torn := len(lines[len(lines)-1]) != 0 // no trailing newline
	if !torn {
		lines = lines[:len(lines)-1] // drop the empty split tail
	}

	if len(lines) == 1 && torn {
		// Crash during the very first write: nothing durable yet, start
		// over. (This must catch a header that tore after its full JSON
		// but before the newline too — truncating "up to the newline"
		// would extend the file with a NUL byte.)
		return j.reset()
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fmt.Errorf("campaign: journal %s: corrupt header: %v", j.path, err)
	}
	if hdr.V != journalVersion {
		return fmt.Errorf("campaign: journal %s: version %d, want %d", j.path, hdr.V, journalVersion)
	}
	if hdr.Spec != j.sig {
		return fmt.Errorf("campaign: journal %s belongs to a different campaign (spec %.12s…, want %.12s…)",
			j.path, hdr.Spec, j.sig)
	}
	if hdr.Total != j.total {
		return fmt.Errorf("campaign: journal %s: run total %d, want %d", j.path, hdr.Total, j.total)
	}

	validEnd := len(lines[0]) + 1
	for li, line := range lines[1:] {
		last := li == len(lines)-2
		entry, err := parseEntry(line, j.total)
		if err != nil {
			if last {
				// The crash-mid-append signature: detected, dropped,
				// repaired. The run re-executes on resume.
				return j.truncate(validEnd)
			}
			return fmt.Errorf("campaign: journal %s: entry %d: %v (corruption before the final line cannot come from a torn append — refusing to resume)",
				j.path, li+1, err)
		}
		if last && torn {
			// Parsed, digest-valid, but never got its newline: the fsync
			// cannot have covered it, so treat it as not durable.
			return j.truncate(validEnd)
		}
		j.completed[entry.Index] = entry.Result
		validEnd += len(line) + 1
	}
	return j.truncate(validEnd)
}

// parseEntry decodes and integrity-checks one journal line.
func parseEntry(line []byte, total int) (RunEntry, error) {
	var e RunEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return e, fmt.Errorf("bad JSON: %v", err)
	}
	if err := e.Verify(total); err != nil {
		return e, err
	}
	return e, nil
}

// truncate discards everything past the durable prefix and positions the
// write offset there.
func (j *Journal) truncate(n int) error {
	if err := j.f.Truncate(int64(n)); err != nil {
		return fmt.Errorf("campaign: repair journal: %w", err)
	}
	if _, err := j.f.Seek(int64(n), io.SeekStart); err != nil {
		return err
	}
	return nil
}

// reset wipes the file and rewrites the header (used when the header
// itself was torn — nothing durable existed yet).
func (j *Journal) reset() error {
	if err := j.truncate(0); err != nil {
		return err
	}
	hdr, err := json.Marshal(journalHeader{V: journalVersion, Spec: j.sig, Total: j.total})
	if err != nil {
		return err
	}
	hdr = append(hdr, '\n')
	if _, err := j.f.Write(hdr); err != nil {
		return err
	}
	return j.f.Sync()
}

// Len returns the number of completed runs on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.completed)
}

// Total returns the campaign's run count.
func (j *Journal) Total() int { return j.total }

// Completed returns the persisted result for run index i, if any.
func (j *Journal) Completed(i int) (scenario.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.completed[i]
	return r, ok
}

// CompletedIndices returns the sorted indices of all persisted runs.
func (j *Journal) CompletedIndices() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	idxs := make([]int, 0, len(j.completed))
	for i := range j.completed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// Append durably records one finished run: one write, one flush, one
// fsync, so a crash can tear at most the line being appended.
func (j *Journal) Append(ru Run, r scenario.Result) error {
	line, err := json.Marshal(RunEntry{Index: ru.Index, Digest: r.Digest(), Result: r})
	if err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: journal sync: %w", err)
	}
	j.completed[ru.Index] = r
	return nil
}

// Close flushes and closes the underlying file. The journal is not usable
// afterwards; reopen with OpenJournal to resume.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		if err := j.w.Flush(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}
