package main

import (
	"encoding/binary"
	"hash/fnv"

	"minraid/internal/core"
)

// valueLen is the size of every write payload.
const valueLen = 64

// classes is the number of disjoint item classes of the stream:
// transaction seq touches only items congruent to seq modulo classes. The
// driver's clients each draw from classes of their own (see lanes), so two
// transactions in flight together never share an item, whatever the
// timing: no transaction waits for a lock, none is chosen as a deadlock
// victim, and a healthy run has no failed operation. Lock contention is
// measured by a microprobe (lockmgr.handoff_us), not by a workload.
const classes = 512

// lanes hands the stream's sequence numbers out to the clients of a phase
// so that no two of them are ever in the same class: client lane of width
// owns the classes lane, lane+width, lane+2*width, ... and takes them in
// turn, each at that class's next unused sequence number. Its consecutive
// transactions are in different classes too (as long as width is at most
// classes/2), so under epoch commit, where the reply precedes the commit
// fan-out, a client's next transaction does not queue behind the locks of
// its previous one. A client's transactions go to the sites
// (class + classes*round) mod sites, so the load stays spread evenly.
//
// One goroutine per lane may call next at a time; phases of different
// widths must not overlap.
type lanes struct {
	rounds [classes]uint64 // sequence numbers used so far, per class
	turns  [classes]uint64 // transactions issued so far, per lane
}

// next returns the sequence number of the next transaction of client lane
// (0 <= lane < width <= classes).
func (l *lanes) next(lane, width int) uint64 {
	class := lane + width*int(l.turns[lane]%uint64(classes/width))
	l.turns[lane]++
	seq := uint64(class) + classes*l.rounds[class]
	l.rounds[class]++
	return seq
}

// issued reports whether next has returned seq.
func (l *lanes) issued(seq uint64) bool { return seq/classes < l.rounds[seq%classes] }

// Stream is the benchmark's own transaction generator. Transaction seq is
// a pure function of (Seed, seq): clients may draw sequence numbers in any
// order, from any goroutine, and two commits given the same seed run
// identical inputs. It deliberately does not use internal/workload, so a
// change to the program's generators cannot change the benchmark's inputs.
type Stream struct {
	Seed   uint64
	Items  int
	Sites  int
	MaxOps int
	// WritePct is the probability, in percent, that an operation writes.
	WritePct int
}

// splitmix64 is the standard 64-bit finalizer; it turns (seed, seq, k)
// into independent draws without any shared generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Coordinator returns the site transaction seq is sent to.
func (s *Stream) Coordinator(seq uint64) core.SiteID {
	return core.SiteID(seq % uint64(s.Sites))
}

// Next returns the operations of transaction seq: 1..MaxOps operations on
// distinct items of its class, each a write with probability WritePct.
func (s *Stream) Next(seq uint64) []core.Op {
	state := splitmix64(s.Seed ^ splitmix64(seq))
	draw := func() uint64 {
		state = splitmix64(state)
		return state
	}
	n := 1 + int(draw()%uint64(s.MaxOps))
	if perClass := s.Items / classes; n > perClass {
		n = perClass // a class too small for MaxOps distinct items
	}
	ops := make([]core.Op, 0, n)
	for len(ops) < n {
		item := core.ItemID(seq%classes + classes*(draw()%uint64(s.Items/classes)))
		dup := false
		for _, o := range ops {
			if o.Item == item {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if int(draw()%100) < s.WritePct {
			ops = append(ops, core.Write(item, s.value(seq, item)))
		} else {
			ops = append(ops, core.Read(item))
		}
	}
	return ops
}

// value is the payload transaction seq writes to item: the pair itself,
// so a dumped copy names the write that produced it, then filler derived
// from the pair.
func (s *Stream) value(seq uint64, item core.ItemID) []byte {
	v := make([]byte, valueLen)
	binary.LittleEndian.PutUint64(v, seq)
	binary.LittleEndian.PutUint32(v[8:], uint32(item))
	x := s.Seed ^ seq<<20 ^ uint64(item)
	for i := 12; i+8 <= valueLen; i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	return v
}

// WriterOf decodes the sequence number a dumped value claims to have been
// written by.
func WriterOf(value []byte) (seq uint64, ok bool) {
	if len(value) != valueLen {
		return 0, false
	}
	return binary.LittleEndian.Uint64(value), true
}

// HasWrites reports whether ops contains at least one write.
func HasWrites(ops []core.Op) bool {
	for _, o := range ops {
		if o.Kind == core.OpWrite {
			return true
		}
	}
	return false
}

// fingerprintTxns is how many leading transactions the fingerprint covers.
const fingerprintTxns = 4096

// Fingerprint is the FNV-1a hash of the first fingerprintTxns transactions
// (coordinator, operation kinds, items and values). The generator is pure
// in (seed, seq), so equal fingerprints mean equal streams.
func (s *Stream) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [13]byte
	for seq := uint64(0); seq < fingerprintTxns; seq++ {
		b[0] = byte(s.Coordinator(seq))
		h.Write(b[:1])
		for _, o := range s.Next(seq) {
			b[0] = byte(o.Kind)
			binary.LittleEndian.PutUint32(b[1:], uint32(o.Item))
			h.Write(b[:5])
			h.Write(o.Value)
		}
	}
	return h.Sum64()
}
