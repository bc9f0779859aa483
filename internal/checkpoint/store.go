package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"moe/internal/atomicio"
	"moe/internal/telemetry"
)

// Store manages a checkpoint directory:
//
//	snap-RRRRRR-NNNNNNNNNNNN.ckpt     run R's snapshot at decision count N
//	journal-RRRRRR-NNNNNNNNNNNN.wal   run R's observations for decisions N+1, …
//
// Every Store instance writes under a fresh *run* number — one larger than
// any run already present in the directory — and the run is also stamped
// inside the checksummed snapshot payload and journal header. A run is a
// lineage marker: all files it stamps describe one timeline of the same
// process's life. Pruning and recovery never mix runs, so a runtime that
// attaches fresh over an old directory can neither have its young snapshot
// pruned in favour of the abandoned higher-count history, nor have that
// history's journals replayed into its timeline just because decision
// counts happen to line up.
//
// Writing a snapshot is atomic (temp + fsync + rename + dir fsync) and
// rotates the journal to a fresh epoch; the previous snapshot generation
// and its journal are retained so a torn newest snapshot still recovers to
// the exact same state through the older snapshot plus its full journal.
// Appends go to the current journal as individually checksummed records.
//
// A Store is not safe for concurrent use; Runtime serializes access under
// its own lock.
type Store struct {
	dir  string
	sync bool
	run  int

	journal      *os.File
	journalEpoch int
	journalIndex int // records appended in the current epoch (post-header)

	// snapshotFault injects crashes into snapshot writes (tests only).
	snapshotFault atomicio.FaultFn
	// journalFault injects I/O errors into journal creates, writes, and
	// fsyncs (tests only). Unlike snapshotFault — whose stages model a crash
	// *after* the stage completed — journalFault is consulted *before* the
	// operation: a non-nil error makes the operation fail with that error,
	// modeling EIO/ENOSPC surfacing to the caller.
	journalFault atomicio.FaultFn

	// gc, when attached, takes over journal durability: appends skip the
	// inline fsync (marking the journal dirty instead) and Sync is the
	// batch commit point, sharing one fsync across every store that
	// reached the committer inside its flush window (groupcommit.go).
	gc         *GroupCommitter
	dirty      bool
	dirtyCount int // appends whose fsync was deferred to the next Sync

	// shipper observes every durable artifact for replication (ship.go).
	shipper func(Shipment)
	// dedupSource seeds each fresh journal epoch with the current dedup
	// window (ship.go).
	dedupSource func() []DedupEntry

	// Metrics (nil until SetMetrics): store-level write latency and error
	// counts, independent of any runtime attached above.
	appendLatency *telemetry.Histogram
	snapLatency   *telemetry.Histogram
	appendErrs    *telemetry.Counter
	snapErrs      *telemetry.Counter
}

// Options tunes a store.
type Options struct {
	// DisableSync skips the per-append fsync (snapshot atomicity is kept).
	// A crash may then lose the journal tail that was still in the page
	// cache — recovery still yields a valid, slightly older state. Used by
	// simulation studies where thousands of appends per run would
	// otherwise be fsync-bound.
	DisableSync bool

	// MinRun floors the run number the store claims. A promoted standby
	// passes its fencing term here so every run it ever writes outranks —
	// in lineage order — anything the deposed primary replicated before the
	// promotion, even if the replicated history had seen fewer runs.
	MinRun int

	// GroupCommit, when non-nil (and sync enabled), takes over journal
	// durability: appends defer their fsync to the next Store.Sync, the
	// batch commit point, which shares one fsync across every store
	// attached to the same committer inside its window. With DisableSync
	// the committer is inert, so callers may attach it unconditionally.
	GroupCommit *GroupCommitter
}

// generations is how many snapshot generations (snapshot + its journal)
// are retained; older ones are pruned after each successful snapshot.
const generations = 2

// Open creates (if needed) and opens a checkpoint directory with default
// options: every journal append is fsynced.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit options. The store claims the next
// unused run number in the directory; everything it writes carries it.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, diskErr("open", dir, err)
	}
	s := &Store{dir: dir, sync: !opts.DisableSync, gc: opts.GroupCommit}
	snaps, err := s.list(snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	journals, err := s.list(journalPrefix, journalSuffix)
	if err != nil {
		return nil, err
	}
	maxRun := 0
	for _, id := range append(snaps, journals...) {
		if id.run > maxRun {
			maxRun = id.run
		}
	}
	s.run = maxRun + 1
	if s.run < opts.MinRun {
		s.run = opts.MinRun
	}
	return s, nil
}

// SetMetrics registers the store's write-latency histograms and error
// counters in reg. Metrics never change what the store writes or how it
// recovers; they only time and count the writes it was making anyway.
//
// SetMetrics must be called before the first Append or WriteSnapshot: the
// metric fields are plain pointers read by those paths without
// synchronization, so attaching metrics to a store already in use is a data
// race. (A Store is single-threaded anyway — Runtime serializes access —
// so this only constrains setup order, not steady-state use.)
func (s *Store) SetMetrics(reg *telemetry.Registry) {
	s.appendLatency = reg.Histogram("checkpoint_append_seconds", "Journal append latency at the store.", nil)
	s.snapLatency = reg.Histogram("checkpoint_snapshot_seconds", "Snapshot write latency at the store.", nil)
	s.appendErrs = reg.Counter("checkpoint_write_errors_total", "Failed checkpoint writes by operation.", "op", "append")
	s.snapErrs = reg.Counter("checkpoint_write_errors_total", "Failed checkpoint writes by operation.", "op", "snapshot")
}

// SetSnapshotFault installs (or clears, with nil) a fault hook on snapshot
// writes — the crash-injection seam the durability tests use to tear a
// write at an exact stage. Production code never calls this.
func (s *Store) SetSnapshotFault(fn atomicio.FaultFn) { s.snapshotFault = fn }

// SetJournalFault installs (or clears, with nil) a fault hook on the
// journal write path: StageCreate before a rotation's OpenFile, StageWrite
// before each record write, StageSyncFile before each fsync. A non-nil
// return makes the operation fail with that error wrapped in DiskError —
// this models a disk turning bad (EIO, ENOSPC), not a crash. Tests only.
func (s *Store) SetJournalFault(fn atomicio.FaultFn) { s.journalFault = fn }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Run returns the lineage number this store writes under.
func (s *Store) Run() int { return s.run }

// JournalEpoch returns the decision count at which the current journal
// epoch started (meaningful once a snapshot has been written).
func (s *Store) JournalEpoch() int { return s.journalEpoch }

// Close closes the current journal (syncing it first — any deferred
// group-commit dirtiness is flushed here, not lost).
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.Sync()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.journal = nil
	s.dirty = false
	s.dirtyCount = 0
	return err
}

const (
	snapPrefix    = "snap-"
	snapSuffix    = ".ckpt"
	journalPrefix = "journal-"
	journalSuffix = ".wal"
	runDigits     = 6
	seqDigits     = 12
)

// fileID identifies one checkpoint file: the run (lineage) that wrote it
// and its decision-count sequence number (snapshot count or journal epoch).
type fileID struct {
	run int
	seq int
}

func (a fileID) less(b fileID) bool {
	if a.run != b.run {
		return a.run < b.run
	}
	return a.seq < b.seq
}

func snapName(id fileID) string {
	return fmt.Sprintf("%s%0*d-%0*d%s", snapPrefix, runDigits, id.run, seqDigits, id.seq, snapSuffix)
}

func journalName(id fileID) string {
	return fmt.Sprintf("%s%0*d-%0*d%s", journalPrefix, runDigits, id.run, seqDigits, id.seq, journalSuffix)
}

// parseName extracts the run and sequence number from a snapshot or
// journal file name; ok is false for anything else (including temp files).
func parseName(name, prefix, suffix string) (fileID, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return fileID{}, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != runDigits+1+seqDigits || mid[runDigits] != '-' {
		return fileID{}, false
	}
	run, err := strconv.Atoi(mid[:runDigits])
	if err != nil || run < 0 {
		return fileID{}, false
	}
	seq, err := strconv.Atoi(mid[runDigits+1:])
	if err != nil || seq < 0 {
		return fileID{}, false
	}
	return fileID{run: run, seq: seq}, true
}

// list returns the IDs of all files with the given naming scheme, sorted
// by (run, seq) ascending.
func (s *Store) list(prefix, suffix string) ([]fileID, error) {
	return listDir(s.dir, prefix, suffix)
}

func listDir(dir, prefix, suffix string) ([]fileID, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, diskErr("list", dir, err)
	}
	var out []fileID
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, ok := parseName(e.Name(), prefix, suffix); ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out, nil
}

// WriteSnapshot durably records a full state, rotates the journal to a new
// epoch at st.Decisions, and prunes generations beyond the retention
// window. On success the state is recoverable even if every later write is
// torn.
func (s *Store) WriteSnapshot(st *State) error {
	var start time.Time
	if s.snapLatency != nil {
		start = time.Now()
	}
	err := s.writeSnapshot(st)
	if s.snapLatency != nil {
		s.snapLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			s.snapErrs.Inc()
		}
	}
	return err
}

func (s *Store) writeSnapshot(st *State) error {
	data, err := EncodeSnapshot(st, s.run)
	if err != nil {
		return err
	}
	name := snapName(fileID{run: s.run, seq: st.Decisions})
	if err := atomicio.WriteFileHooked(filepath.Join(s.dir, name), data, 0o644, s.snapshotFault); err != nil {
		return diskErr("snapshot", filepath.Join(s.dir, name), err)
	}
	s.ship(ShipSnapshot, s.run, st.Decisions, 0, data)
	if err := s.rotateJournal(st.Decisions); err != nil {
		return err
	}
	return s.prune()
}

// rotateJournal closes the current journal and starts a fresh one whose
// epoch is the given decision count, writing its header record durably.
func (s *Store) rotateJournal(epoch int) error {
	if err := s.Close(); err != nil {
		return err
	}
	path := filepath.Join(s.dir, journalName(fileID{run: s.run, seq: epoch}))
	if err := s.fault(atomicio.StageCreate); err != nil {
		return diskErr("rotate", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return diskErr("rotate", path, err)
	}
	e := &enc{}
	e.int(s.run)
	e.int(epoch)
	header := appendRecord(nil, recordJournalHeader, e.b)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return diskErr("rotate", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return diskErr("rotate", path, err)
	}
	if err := atomicio.SyncDir(s.dir); err != nil {
		f.Close()
		return diskErr("rotate", s.dir, err)
	}
	s.journal = f
	s.journalEpoch = epoch
	s.journalIndex = 0
	s.ship(ShipJournalOpen, s.run, epoch, 0, header)
	// Seed the fresh epoch with the current dedup window: recovery that
	// starts at this rotation's snapshot must still know the request IDs
	// acked before it.
	if s.dedupSource != nil {
		if window := s.dedupSource(); len(window) > 0 {
			if err := s.appendJournal(recordDedupWindow, encodeDedupWindow(window)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fault consults the journal fault hook for one stage.
func (s *Store) fault(stage atomicio.Stage) error {
	if s.journalFault == nil {
		return nil
	}
	return s.journalFault(stage)
}

// Append writes one observation to the current journal. A snapshot must
// have been written first (it opens the journal epoch).
func (s *Store) Append(obs Observation) error {
	var start time.Time
	if s.appendLatency != nil {
		start = time.Now()
	}
	err := s.append(obs)
	if s.appendLatency != nil {
		s.appendLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			s.appendErrs.Inc()
		}
	}
	return err
}

func (s *Store) append(obs Observation) error {
	e := &enc{}
	encodeObservation(e, &obs)
	return s.appendJournal(recordJournalEntry, e.b)
}

// appendJournal frames one record of any kind, writes it to the current
// journal (fsyncing when the store syncs), and ships it. All journal
// appends — observation entries and dedup records alike — route through
// here so the fault seam and the replication stream both see every record.
func (s *Store) appendJournal(kind byte, payload []byte) error {
	if s.journal == nil {
		return fmt.Errorf("checkpoint: no open journal; write a snapshot first")
	}
	frame := appendRecord(nil, kind, payload)
	if err := s.fault(atomicio.StageWrite); err != nil {
		return diskErr("append", s.journal.Name(), err)
	}
	if _, err := s.journal.Write(frame); err != nil {
		return diskErr("append", s.journal.Name(), err)
	}
	switch {
	case s.sync && s.gc != nil:
		// Group commit: durability is deferred to the next Sync, the batch
		// commit point. The record is written, not yet promised.
		s.dirty = true
		s.dirtyCount++
	case s.sync:
		if err := s.fault(atomicio.StageSyncFile); err != nil {
			return diskErr("append", s.journal.Name(), err)
		}
		if err := s.journal.Sync(); err != nil {
			return diskErr("append", s.journal.Name(), err)
		}
	}
	s.ship(ShipJournalRecord, s.run, s.journalEpoch, s.journalIndex, frame)
	s.journalIndex++
	return nil
}

// snapshotIntact reports whether a snapshot file decodes cleanly and its
// embedded run and decision count agree with its name. readable is false
// when the file could not be read at all — the caller cannot judge it.
func (s *Store) snapshotIntact(id fileID) (intact, readable bool) {
	return snapshotIntactIn(s.dir, id)
}

func snapshotIntactIn(dir string, id fileID) (intact, readable bool) {
	data, err := os.ReadFile(filepath.Join(dir, snapName(id)))
	if err != nil {
		return false, false
	}
	st, run, err := DecodeSnapshot(data)
	return err == nil && run == id.run && st.Decisions == id.seq, true
}

// prune removes snapshot generations and journals beyond the retention
// window. The current journal epoch is always kept.
func (s *Store) prune() error {
	return pruneDir(s.dir, fileID{run: s.run, seq: s.journalEpoch})
}

// pruneDir removes snapshot generations and journals beyond the retention
// window in dir; cur names the journal epoch currently being written (kept
// unconditionally). Retention counts only snapshots that validate — a torn
// or corrupt newer snapshot must not evict the intact generation recovery
// would actually fall back to. Shared by the writing Store and the
// replication Applier, which maintains the same retention discipline on the
// standby's copy of the lineage.
func pruneDir(dir string, cur fileID) error {
	snaps, err := listDir(dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	// Keep the newest `generations` intact snapshots by (run, seq) —
	// lineage order, so a young snapshot of the current run outranks any
	// higher-count history from an abandoned earlier run. Corrupt files
	// within the scan window are junk and fall out of the keep set;
	// unreadable ones are left untouched (we cannot judge them) but do not
	// count toward retention.
	keep := make(map[fileID]bool)
	unreadable := make(map[fileID]bool)
	for i := len(snaps) - 1; i >= 0 && len(keep) < generations; i-- {
		id := snaps[i]
		intact, readable := snapshotIntactIn(dir, id)
		switch {
		case intact:
			keep[id] = true
		case !readable:
			unreadable[id] = true
		}
	}
	for _, id := range snaps {
		if keep[id] || unreadable[id] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, snapName(id))); err != nil && !os.IsNotExist(err) {
			return diskErr("prune", filepath.Join(dir, snapName(id)), err)
		}
	}
	// A journal survives if some retained snapshot of its own run can seed
	// a replay chain through it (snapshot count ≤ journal epoch).
	journals, err := listDir(dir, journalPrefix, journalSuffix)
	if err != nil {
		return err
	}
	for _, j := range journals {
		if j == cur {
			continue
		}
		needed := false
		for id := range keep {
			if id.run == j.run && id.seq <= j.seq {
				needed = true
				break
			}
		}
		for id := range unreadable {
			if id.run == j.run && id.seq <= j.seq {
				needed = true
				break
			}
		}
		if !needed {
			if err := os.Remove(filepath.Join(dir, journalName(j))); err != nil && !os.IsNotExist(err) {
				return diskErr("prune", filepath.Join(dir, journalName(j)), err)
			}
		}
	}
	// Crash leftovers from interrupted snapshot writes are harmless but
	// accumulate; sweep them while we are here.
	return atomicio.RemoveTemps(dir)
}

// Recovery is the result of reading a checkpoint directory after a crash.
type Recovery struct {
	// State is the newest intact snapshot of the recovered lineage, or nil
	// for a cold start.
	State *State
	// Tail holds the journaled observations recorded after State (or from
	// the beginning, for a lineage whose snapshot was lost but whose
	// journal starts at decision 0), in decision order, up to the first
	// sign of corruption.
	Tail []Observation
	// Dedups is the reconstructed idempotent-request window, oldest first:
	// the newest full-window record seen in the replayed chain plus every
	// dedup marker after it. Entries whose Decisions exceed the recovered
	// decision count (markers journaled for observations whose entries were
	// then torn off) are already filtered out.
	Dedups []DedupEntry
	// Report documents the ladder: which files were used, skipped, or cut
	// short, and why. Purely informational.
	Report []string
}

// Decisions returns the decision count the recovered state reaches once
// the tail is replayed.
func (r *Recovery) Decisions() int {
	d := len(r.Tail)
	if r.State != nil {
		d += r.State.Decisions
	}
	return d
}

// Recover reads the directory and returns the best recoverable state. It
// walks runs newest-first and commits to the first lineage with anything
// recoverable — an intact snapshot, or a journal chain starting at
// decision 0 — then climbs that lineage's ladder: newest snapshot that
// validates, plus the longest contiguous journal chain of the same run on
// top of it. Journals of other runs are never replayed, however neatly
// their epochs would line up: they describe a different timeline.
//
// Recover never panics on arbitrary file contents and never returns an
// error for corruption — corruption just lands lower on the ladder (an
// older snapshot, an older run, ultimately a cold start). Errors are
// reserved for I/O failures reading the directory itself.
//
// Call Recover before the store's first WriteSnapshot/Append; the open
// journal belongs to the writer side.
func (s *Store) Recover() (*Recovery, error) {
	rec := &Recovery{}
	snaps, err := s.list(snapPrefix, snapSuffix)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			rec.Report = append(rec.Report, "no checkpoint directory; cold start")
			return rec, nil
		}
		return nil, err
	}
	journals, err := s.list(journalPrefix, journalSuffix)
	if err != nil {
		return nil, err
	}

	runSet := make(map[int]bool)
	for _, id := range snaps {
		runSet[id.run] = true
	}
	for _, id := range journals {
		runSet[id.run] = true
	}
	runs := make([]int, 0, len(runSet))
	for r := range runSet {
		runs = append(runs, r)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(runs)))

	for _, run := range runs {
		if s.recoverRun(run, snaps, journals, rec) {
			return rec, nil
		}
	}
	rec.Report = append(rec.Report, "no recoverable lineage; cold start")
	return rec, nil
}

// recoverRun attempts to recover the given run's lineage into rec,
// reporting whether it committed to this run. A run with an intact
// snapshot, or with a journal chain rooted at decision 0, is committed to;
// a run that left nothing recoverable is skipped so an older lineage can
// be tried.
func (s *Store) recoverRun(run int, snaps, journals []fileID, rec *Recovery) bool {
	// Rung 1: newest intact snapshot of this run.
	base := -1
	for i := len(snaps) - 1; i >= 0; i-- {
		id := snaps[i]
		if id.run != run {
			continue
		}
		name := snapName(id)
		data, rerr := os.ReadFile(filepath.Join(s.dir, name))
		if rerr != nil {
			rec.Report = append(rec.Report, fmt.Sprintf("%s: unreadable (%v); trying older", name, rerr))
			continue
		}
		st, srun, derr := DecodeSnapshot(data)
		if derr != nil {
			rec.Report = append(rec.Report, fmt.Sprintf("%s: rejected (%v); trying older", name, derr))
			continue
		}
		if srun != run || st.Decisions != id.seq {
			rec.Report = append(rec.Report, fmt.Sprintf("%s: embedded run %d / decision count %d do not match file name; trying older", name, srun, st.Decisions))
			continue
		}
		rec.State = st
		base = id.seq
		rec.Report = append(rec.Report, fmt.Sprintf("%s: loaded", name))
		break
	}
	if base < 0 {
		// Rung 2: no snapshot survived, but a journal rooted at decision 0
		// replays this lineage in full from a cold state.
		root := fileID{run: run, seq: 0}
		if !hasID(journals, root) || !s.journalHeaderIntact(root) {
			rec.Report = append(rec.Report, fmt.Sprintf("run %d: no intact snapshot and no replayable epoch-0 journal; trying older run", run))
			return false
		}
		rec.Report = append(rec.Report, fmt.Sprintf("run %d: no intact snapshot; replaying journal from decision 0", run))
		base = 0
	}

	// Rung 3: the contiguous journal chain of this run from the base.
	expected := base
	for _, j := range journals {
		if j.run != run || j.seq < expected {
			continue
		}
		if j.seq > expected {
			rec.Report = append(rec.Report, fmt.Sprintf("%s: epoch gap (want %d); stopping replay", journalName(j), expected))
			break
		}
		entries, clean := s.readJournal(j, rec)
		rec.Tail = append(rec.Tail, entries...)
		expected += len(entries)
		if !clean {
			break
		}
	}
	// A dedup marker records the decision count *after* its batch; one that
	// exceeds what this lineage actually recovers would promise decisions
	// the replay cannot reproduce. (Cannot happen with ordered appends —
	// markers follow their batch's entries — but recovery never trusts
	// ordering it didn't verify.)
	kept := rec.Dedups[:0]
	for _, mark := range rec.Dedups {
		if mark.Decisions <= expected {
			kept = append(kept, mark)
		}
	}
	rec.Dedups = kept
	return true
}

func hasID(ids []fileID, want fileID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// journalHeaderIntact reports whether a journal file opens with a valid
// header naming the expected run and epoch.
func (s *Store) journalHeaderIntact(id fileID) bool {
	data, err := os.ReadFile(filepath.Join(s.dir, journalName(id)))
	if err != nil {
		return false
	}
	kind, payload, _, err := readRecord(data)
	if err != nil || kind != recordJournalHeader {
		return false
	}
	hd := &dec{b: payload}
	run, epoch := hd.int(), hd.int()
	return hd.done() == nil && run == id.run && epoch == id.seq
}

// readJournal reads one journal file, validating the header and collecting
// entries until the first torn or corrupt record. clean reports whether the
// file was consumed without any defect (so a following epoch may continue
// the chain).
func (s *Store) readJournal(id fileID, rec *Recovery) (entries []Observation, clean bool) {
	name := journalName(id)
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		rec.Report = append(rec.Report, fmt.Sprintf("%s: unreadable (%v)", name, err))
		return nil, false
	}
	kind, payload, size, err := readRecord(data)
	if err != nil || kind != recordJournalHeader {
		rec.Report = append(rec.Report, fmt.Sprintf("%s: bad header; ignoring file", name))
		return nil, false
	}
	hd := &dec{b: payload}
	run, epoch := hd.int(), hd.int()
	if hd.done() != nil || run != id.run || epoch != id.seq {
		rec.Report = append(rec.Report, fmt.Sprintf("%s: header run/epoch mismatch; ignoring file", name))
		return nil, false
	}
	data = data[size:]
	for len(data) > 0 {
		kind, payload, size, err = readRecord(data)
		if err != nil {
			rec.Report = append(rec.Report, fmt.Sprintf("%s: torn tail after %d entries (%v)", name, len(entries), err))
			return entries, false
		}
		switch kind {
		case recordJournalEntry:
			d := &dec{b: payload}
			obs := decodeObservation(d)
			if d.done() != nil {
				rec.Report = append(rec.Report, fmt.Sprintf("%s: malformed entry after %d entries", name, len(entries)))
				return entries, false
			}
			entries = append(entries, obs)
		case recordDedupMark:
			d := &dec{b: payload}
			mark := decodeDedupEntry(d)
			if d.done() != nil {
				rec.Report = append(rec.Report, fmt.Sprintf("%s: malformed dedup marker after %d entries", name, len(entries)))
				return entries, false
			}
			rec.Dedups = append(rec.Dedups, mark)
		case recordDedupWindow:
			window, werr := decodeDedupWindow(payload)
			if werr != nil {
				rec.Report = append(rec.Report, fmt.Sprintf("%s: malformed dedup window after %d entries (%v)", name, len(entries), werr))
				return entries, false
			}
			// A window record is the full state at its rotation: it
			// supersedes anything accumulated from older epochs.
			rec.Dedups = append(rec.Dedups[:0], window...)
		default:
			rec.Report = append(rec.Report, fmt.Sprintf("%s: unexpected record kind %d after %d entries", name, kind, len(entries)))
			return entries, false
		}
		data = data[size:]
	}
	rec.Report = append(rec.Report, fmt.Sprintf("%s: replayed %d entries", name, len(entries)))
	return entries, true
}
