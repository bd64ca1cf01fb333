package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"minraid/internal/core"
	"minraid/internal/wire"
)

// Frame kinds inside snapshot and log files.
const (
	frameHeader byte = 1 // snapshot header: item count
	frameRecord byte = 2 // one versioned copy
)

const (
	snapshotFile = "snapshot"
	walFile      = "wal"
)

// WALOptions configures a durable store.
type WALOptions struct {
	// Dir is the directory holding the snapshot and log files. It is
	// created if missing.
	Dir string
	// Items is the database size; must match any existing snapshot.
	Items int
	// Initial is the version-0 value of every item.
	Initial []byte
	// Sync forces an fsync after every applied write. Without it the OS
	// page cache absorbs the cost, which is the usual configuration for
	// the experiments (the paper factored data I/O out entirely).
	Sync bool
	// GroupCommit batches concurrent Appends into one write+fsync: each
	// Apply enqueues its record and blocks until a committer goroutine
	// flushes the accumulated batch. The committer is notifier-driven
	// (woken on first enqueue, no ticker latency when idle); while one
	// batch's write+fsync is in flight, later arrivals accumulate into
	// the next batch, so the fsync cost is amortized across however many
	// transactions commit during one device flush. A lone writer
	// degenerates to one fsync per record, same as without the option.
	GroupCommit bool
	// CompactEvery triggers snapshot compaction after that many applied
	// records. Zero disables automatic compaction.
	CompactEvery int
}

// walBatch is one group-commit batch: encoded frames from concurrent
// Applies, flushed by the committer in a single write+fsync.
type walBatch struct {
	buf  []byte
	recs int
	err  error
	done chan struct{} // closed after flush; err is then readable
}

// WALStore is a MemStore with an append-only, CRC-framed redo log and
// snapshot compaction. Reopening a directory replays the snapshot and log,
// recovering every committed copy; a torn final record (partial write
// during a crash) is detected by the frame CRC and truncated away.
//
// Two locks: mu orders memory installs, batch accumulation and the closed
// flag; logMu owns the log file, its end offset and compaction. mu may be
// held while taking logMu, never the reverse.
type WALStore struct {
	mu     sync.Mutex
	mem    *MemStore
	opts   WALOptions
	closed bool
	batch  *walBatch // group commit: the accumulating batch

	logMu     sync.Mutex
	log       *os.File
	off       int64 // end offset of the last well-formed record
	logFailed error // fail-stop sticky error after unrecoverable append
	appends   int

	// kick wakes the committer; quit stops it; committerDone reports it
	// has flushed the final batch and exited.
	kick          chan struct{}
	quit          chan struct{}
	committerDone chan struct{}

	// testWrite, when non-nil, replaces log.Write in appendLocked so
	// tests can inject partial writes. Guarded by logMu.
	testWrite func([]byte) (int, error)
}

// OpenWAL opens or creates a durable store in opts.Dir.
func OpenWAL(opts WALOptions) (*WALStore, error) {
	if opts.Items <= 0 {
		return nil, fmt.Errorf("storage: item count %d out of range", opts.Items)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating %s: %w", opts.Dir, err)
	}
	s := &WALStore{mem: NewMemStore(opts.Items, opts.Initial), opts: opts}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(opts.Dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log: %w", err)
	}
	s.log = log
	if opts.GroupCommit {
		s.kick = make(chan struct{}, 1)
		s.quit = make(chan struct{})
		s.committerDone = make(chan struct{})
		go s.committer()
	}
	return s, nil
}

func encodeRecord(iv core.ItemVersion) []byte {
	enc := wire.NewEncoder(16 + len(iv.Value))
	enc.Uvarint(uint64(iv.Item))
	enc.Uvarint(uint64(iv.Version))
	enc.PutBytes(iv.Value)
	return enc.Bytes()
}

func decodeRecord(payload []byte) (core.ItemVersion, error) {
	dec := wire.NewDecoder(payload)
	iv := core.ItemVersion{
		Item:    core.ItemID(dec.Uvarint()),
		Version: core.TxnID(dec.Uvarint()),
		Value:   dec.Bytes(),
	}
	if err := dec.Finish(); err != nil {
		return core.ItemVersion{}, err
	}
	return iv, nil
}

// encodeFrame returns the full on-disk frame (header + payload) for one
// record, so an append is a single Write call: either the whole frame
// reaches the file or the error path truncates back to the previous
// record boundary — a failed append never leaves framing garbage that a
// later successful append would bury mid-log.
func encodeFrame(iv core.ItemVersion) []byte {
	var bb bytes.Buffer
	// Writing to a bytes.Buffer cannot fail; the only WriteFrame error is
	// the size limit, impossible for an 8-byte-payload record.
	if err := wire.WriteFrame(&bb, frameRecord, encodeRecord(iv)); err != nil {
		panic(err)
	}
	return bb.Bytes()
}

// loadSnapshot restores the memory image from the snapshot file, if any.
func (s *WALStore) loadSnapshot() error {
	f, err := os.Open(filepath.Join(s.opts.Dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: opening snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	kind, payload, err := wire.ReadFrame(r)
	if err != nil {
		return fmt.Errorf("storage: snapshot header: %w", err)
	}
	if kind != frameHeader {
		return fmt.Errorf("storage: snapshot starts with frame kind %d", kind)
	}
	dec := wire.NewDecoder(payload)
	n := dec.Uvarint()
	if err := dec.Finish(); err != nil {
		return fmt.Errorf("storage: snapshot header: %w", err)
	}
	if int(n) != s.opts.Items {
		return fmt.Errorf("storage: snapshot holds %d items, configured for %d", n, s.opts.Items)
	}
	for {
		kind, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("storage: reading snapshot: %w", err)
		}
		if kind != frameRecord {
			return fmt.Errorf("storage: snapshot frame kind %d", kind)
		}
		iv, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("storage: snapshot record: %w", err)
		}
		if _, err := s.mem.Apply(iv); err != nil {
			return err
		}
	}
}

// replayLog applies every intact log record and truncates a torn tail,
// leaving s.off at the end of the last well-formed record.
func (s *WALStore) replayLog() error {
	path := filepath.Join(s.opts.Dir, walFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: opening log: %w", err)
	}
	defer f.Close()
	// The log is read through a buffer, and the offset of the end of the
	// last intact record is the count of bytes its frames consumed.
	r := &countingReader{r: bufio.NewReader(f)}
	var valid int64
	for {
		kind, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: everything before it is intact.
			if terr := os.Truncate(path, valid); terr != nil {
				return fmt.Errorf("storage: truncating torn log: %w", terr)
			}
			break
		}
		if kind != frameRecord {
			return fmt.Errorf("storage: log frame kind %d", kind)
		}
		iv, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("storage: log record: %w", err)
		}
		if _, err := s.mem.Apply(iv); err != nil {
			return err
		}
		valid = r.n
	}
	s.off = valid
	return nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Items implements Store.
func (s *WALStore) Items() int { return s.mem.Items() }

// Get implements Store.
func (s *WALStore) Get(item core.ItemID) (core.ItemVersion, error) { return s.mem.Get(item) }

// Apply implements Store: install in memory, then append to the redo log
// (directly, or via the group-commit batch).
func (s *WALStore) Apply(iv core.ItemVersion) (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	applied, err := s.mem.Apply(iv)
	if err != nil || !applied {
		s.mu.Unlock()
		return applied, err
	}

	if s.opts.GroupCommit {
		// Enqueue into the accumulating batch and wait for the committer.
		if s.batch == nil {
			s.batch = &walBatch{done: make(chan struct{})}
		}
		b := s.batch
		b.buf = append(b.buf, encodeFrame(iv)...)
		b.recs++
		s.mu.Unlock()
		select {
		case s.kick <- struct{}{}:
		default: // committer already signalled
		}
		<-b.done
		if b.err != nil {
			return false, b.err
		}
		return true, nil
	}

	// Direct append. mu stays held so log order matches memory order in
	// the serial configuration (not required for correctness — replay is
	// idempotent and version-monotone — but keeps the log readable).
	s.logMu.Lock()
	err = s.appendLocked(encodeFrame(iv), 1)
	s.logMu.Unlock()
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, nil
}

// appendLocked writes pre-encoded frames to the log, fsyncs if
// configured, and runs threshold compaction. Callers hold logMu.
//
// This is the partial-write window: a crash or I/O error mid-write can
// leave a torn frame at the tail. A torn *tail* is recoverable (replayLog
// truncates it), but only if it stays the tail — if a later append
// succeeded after a failed one, the torn bytes would sit mid-log and
// replay would stop there, silently dropping the committed suffix. So a
// failed write truncates back to the last well-formed boundary before
// returning; if even that fails, the log is declared failed and every
// later append is refused (fail-stop) rather than risk burying the tear.
func (s *WALStore) appendLocked(frames []byte, recs int) error {
	if s.logFailed != nil {
		return s.logFailed
	}
	write := s.log.Write
	if s.testWrite != nil {
		write = s.testWrite
	}
	if _, err := write(frames); err != nil {
		if terr := s.log.Truncate(s.off); terr != nil {
			s.logFailed = fmt.Errorf("storage: log failed: append (%v) then truncate-back: %w", err, terr)
			return s.logFailed
		}
		return fmt.Errorf("storage: appending log: %w", err)
	}
	s.off += int64(len(frames))
	if s.opts.Sync {
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("storage: syncing log: %w", err)
		}
	}
	s.appends += recs
	if s.opts.CompactEvery > 0 && s.appends >= s.opts.CompactEvery {
		return s.compactLocked()
	}
	return nil
}

// committer is the group-commit flush loop: woken by the first record of
// a batch, it swaps the batch out and flushes it while later arrivals
// accumulate into the next one.
func (s *WALStore) committer() {
	defer close(s.committerDone)
	for {
		select {
		case <-s.kick:
			s.flushBatch()
		case <-s.quit:
			s.flushBatch() // final flush: nothing enqueues after closed
			return
		}
	}
}

// flushBatch writes the current batch (if any) in one write+fsync and
// wakes its waiters.
func (s *WALStore) flushBatch() {
	s.mu.Lock()
	b := s.batch
	s.batch = nil
	s.mu.Unlock()
	if b == nil {
		return
	}
	s.logMu.Lock()
	b.err = s.appendLocked(b.buf, b.recs)
	s.logMu.Unlock()
	close(b.done)
}

// Dump implements Store.
func (s *WALStore) Dump(first, last core.ItemID) ([]core.ItemVersion, error) {
	return s.mem.Dump(first, last)
}

// Versions implements Store.
func (s *WALStore) Versions() []uint64 { return s.mem.Versions() }

// Compact writes a fresh snapshot and truncates the log.
func (s *WALStore) Compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.compactLocked()
}

// compactLocked snapshots memory and truncates the log. Callers hold
// logMu. Under group commit the snapshot may include records whose batch
// has not flushed yet (memory runs ahead of the log); that direction is
// safe — the store can only be *more* durable than acknowledged, and
// replay of any superseded log record is rejected as stale.
func (s *WALStore) compactLocked() error {
	tmp := filepath.Join(s.opts.Dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: creating snapshot: %w", err)
	}
	hdr := wire.NewEncoder(8)
	hdr.Uvarint(uint64(s.mem.Items()))
	if err := wire.WriteFrame(f, frameHeader, hdr.Bytes()); err != nil {
		f.Close()
		return err
	}
	copies, err := s.mem.Dump(0, core.ItemID(s.mem.Items()-1))
	if err != nil {
		f.Close()
		return err
	}
	for _, iv := range copies {
		if err := wire.WriteFrame(f, frameRecord, encodeRecord(iv)); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.opts.Dir, snapshotFile)); err != nil {
		return fmt.Errorf("storage: installing snapshot: %w", err)
	}
	// The rename must be durable before the log shrinks: without the
	// directory fsync a crash can surface the old directory entry (old or
	// missing snapshot) next to an already-truncated log, losing every
	// committed write the old log held. Only after the directory entry is
	// on disk is the log's content really covered by the snapshot.
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncating log: %w", err)
	}
	if _, err := s.log.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.off = 0
	s.appends = 0
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: opening dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("storage: syncing dir: %w", err)
	}
	return d.Close()
}

// Close implements Store. Under group commit the committer flushes any
// accumulated batch before the log is synced and closed, so every Apply
// that was acknowledged — and any still blocked in a batch — is durable.
func (s *WALStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.opts.GroupCommit {
		close(s.quit)
		<-s.committerDone
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if err := s.log.Sync(); err != nil {
		s.log.Close()
		return err
	}
	return s.log.Close()
}

var _ Store = (*WALStore)(nil)
