package core

import "fmt"

// FailLockTable records fail-locks for every data item. Per the paper
// (§1.2), "we implemented fail-locks with a bit map for each data item";
// bit n set for item i means a fail-lock is set for site n on item i — site
// n's copy of item i missed an update while site n was down and is
// therefore out of date.
//
// The table is sized at construction to the database size and to at most
// MaxSites sites. All operations are O(1) bit manipulation so that, as in
// the paper, "the fail-lock operations [can] be performed very quickly".
// The table is not internally synchronized; the owning site's event loop
// serializes access.
type FailLockTable struct {
	bits  []uint64 // one bitmap per item, bit k = fail-lock for site k
	sites int
}

// NewFailLockTable returns an all-clear table for items items and sites
// sites.
func NewFailLockTable(items, sites int) *FailLockTable {
	if sites <= 0 || sites > MaxSites {
		panic(fmt.Sprintf("core: site count %d out of range 1..%d", sites, MaxSites))
	}
	if items < 0 {
		panic("core: negative item count")
	}
	return &FailLockTable{bits: make([]uint64, items), sites: sites}
}

// Items returns the number of data items the table covers.
func (t *FailLockTable) Items() int { return len(t.bits) }

// Sites returns the number of sites the table covers.
func (t *FailLockTable) Sites() int { return t.sites }

// Set sets the fail-lock for site on item: site's copy of item has missed
// an update. Fail-lock bits are set by an operational site on behalf of a
// failed site which has missed an update (paper §1.1).
func (t *FailLockTable) Set(item ItemID, site SiteID) {
	t.check(item, site)
	t.bits[item] |= 1 << site
}

// Clear clears the fail-lock for site on item: site's copy of item has been
// refreshed by a write or a copier transaction.
func (t *FailLockTable) Clear(item ItemID, site SiteID) {
	t.check(item, site)
	t.bits[item] &^= 1 << site
}

// IsSet reports whether a fail-lock is set for site on item, i.e. whether
// site's copy of item is known to be out of date.
func (t *FailLockTable) IsSet(item ItemID, site SiteID) bool {
	t.check(item, site)
	return t.bits[item]&(1<<site) != 0
}

// Mask returns the raw bitmap for item.
func (t *FailLockTable) Mask(item ItemID) uint64 {
	if int(item) >= len(t.bits) {
		panic(fmt.Sprintf("core: item %d out of range for %d-item table", item, len(t.bits)))
	}
	return t.bits[item]
}

// AnySet reports whether any site holds a fail-lock on item.
func (t *FailLockTable) AnySet(item ItemID) bool { return t.Mask(item) != 0 }

// CountForSite returns the number of items fail-locked for site — the
// measure of inconsistency the paper's figures plot ("since each set
// fail-lock represents an inconsistent copy, the number of fail-locks set
// is a measure of inconsistency", §4).
func (t *FailLockTable) CountForSite(site SiteID) int {
	t.checkSite(site)
	n := 0
	mask := uint64(1) << site
	for _, b := range t.bits {
		if b&mask != 0 {
			n++
		}
	}
	return n
}

// TotalSet returns the total number of fail-lock bits set across all items
// and sites.
func (t *FailLockTable) TotalSet() int {
	n := 0
	for _, b := range t.bits {
		n += popcount(b)
	}
	return n
}

// ItemsLockedFor returns, in ascending order, every item fail-locked for
// site. A recovering site uses this to distinguish out-of-date items from
// up-to-date items so the up-to-date items can be made available for
// transaction processing immediately.
func (t *FailLockTable) ItemsLockedFor(site SiteID) []ItemID {
	t.checkSite(site)
	mask := uint64(1) << site
	var out []ItemID
	for i, b := range t.bits {
		if b&mask != 0 {
			out = append(out, ItemID(i))
		}
	}
	return out
}

// UpToDateSites returns the sites whose copy of item carries no fail-lock,
// excluding except. These are the candidate donors for a copier
// transaction: a copier "causes a read from a good data item on another
// operational site" (paper §1.1).
func (t *FailLockTable) UpToDateSites(item ItemID, except SiteID) []SiteID {
	b := t.Mask(item)
	out := make([]SiteID, 0, t.sites)
	for s := 0; s < t.sites; s++ {
		id := SiteID(s)
		if id == except {
			continue
		}
		if b&(1<<id) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Snapshot returns a copy of the raw bitmaps, suitable for shipping to a
// recovering site inside a control transaction of type 1.
func (t *FailLockTable) Snapshot() []uint64 {
	out := make([]uint64, len(t.bits))
	copy(out, t.bits)
	return out
}

// Install replaces the table contents with a snapshot taken from another
// site. The snapshot must cover the same database size.
func (t *FailLockTable) Install(snapshot []uint64) error {
	if len(snapshot) != len(t.bits) {
		return fmt.Errorf("core: fail-lock snapshot covers %d items, table holds %d", len(snapshot), len(t.bits))
	}
	copy(t.bits, snapshot)
	return nil
}

// Maintain performs the commit-time fail-lock maintenance of §1.2 for one
// written item: "the nominal session vector was examined and the fail-lock
// bits [were set] for each failed site [and cleared for each up site]. Note
// that this resulted in some fail-lock bits being re-cleared for an
// operational site. However, for our system this implementation was more
// efficient than conditionally performing fail-lock maintenance."
//
// Sites in StatusRecovering are treated like down sites: they have not yet
// begun receiving copy updates, so a write committed now is an update they
// miss.
//
// Maintain returns the number of bits it newly set and newly cleared, so a
// site can account fail-lock churn (re-clears of already-clear bits are not
// counted).
func (t *FailLockTable) Maintain(item ItemID, vec SessionVector) (set, cleared int) {
	return t.MaintainMasked(item, vec, ^uint64(0))
}

// MaintainMasked is Maintain restricted to the sites in hostMask: under
// partial replication only hosting sites can miss an update on item, so
// only their bits are maintained. Maintain is MaintainMasked with an
// all-ones mask.
func (t *FailLockTable) MaintainMasked(item ItemID, vec SessionVector, hostMask uint64) (set, cleared int) {
	if int(item) >= len(t.bits) {
		panic(fmt.Sprintf("core: item %d out of range for %d-item table", item, len(t.bits)))
	}
	var up, known uint64
	for s := 0; s < vec.Len() && s < t.sites; s++ {
		known |= 1 << s
		if vec.Status(SiteID(s)) == StatusUp {
			up |= 1 << s
		}
	}
	up &= hostMask
	known &= hostMask
	// Set the bit of every known non-operational hosting site, clear the
	// bit of every operational hosting site; bits outside the vector or
	// the host mask are left untouched.
	before := t.bits[item]
	after := (before &^ up) | (known &^ up)
	t.bits[item] = after
	return popcount(after &^ before), popcount(before &^ after)
}

// Staleness folds what is in hand about one item's copies into the item's
// lock word. Each input is a lock word, the copy version it was held at
// and the sites whose copies are at that version. The fold is a join —
// the highest version wins, equal versions are OR-ed — so the order of
// the inputs cannot change the word. The zero value holds nothing.
//
// A copy version read here (Copy) is evidence about that copy. A version
// reported from elsewhere (Add) is not: it was read at another moment,
// and a copy behind the top may be behind only because a commit is still
// on its way to it, so a bit derived from it would sit in this table
// alone. A reporting site counts for its own bit through its word instead.
type Staleness struct {
	Top    uint64 // highest copy version in hand
	AtTop  uint64 // sites whose copy is at Top
	read   uint64 // sites whose copy version was read here
	claims uint64 // the reporting sites' own bits in their words
	words  uint64 // OR of the lock words held at Top
}

// Add folds a lock word reported from elsewhere, held at version by the
// sites in holders, whose copies are at version. A word whose holder's
// copy is not at version (a lock-sync sender's top) has no holders.
func (j *Staleness) Add(holders, version, word uint64) {
	switch {
	case version > j.Top:
		j.Top, j.AtTop, j.words = version, holders, word
	case version == j.Top:
		j.AtTop |= holders
		j.words |= word
	}
	j.claims |= word & holders
}

// Copy folds site's copy version read here and the lock word held beside
// it.
func (j *Staleness) Copy(site SiteID, version, word uint64) {
	j.Add(1<<site, version, word)
	j.read |= 1 << site
}

// Word returns the item's lock word, the staleness rule: a hosting site
// whose copy version was read here and is below the highest version in
// hand has its bit set, as has a hosting site that reports its own bit
// set; the words held at the highest version are OR-ed in.
func (j *Staleness) Word(hostMask uint64) uint64 {
	return (j.read&^j.AtTop|j.claims)&hostMask | j.words
}

// Reset clears every fail-lock. Used only by tests and experiment setup.
func (t *FailLockTable) Reset() {
	for i := range t.bits {
		t.bits[i] = 0
	}
}

func (t *FailLockTable) check(item ItemID, site SiteID) {
	if int(item) >= len(t.bits) {
		panic(fmt.Sprintf("core: item %d out of range for %d-item table", item, len(t.bits)))
	}
	t.checkSite(site)
}

func (t *FailLockTable) checkSite(site SiteID) {
	if int(site) >= t.sites {
		panic(fmt.Sprintf("core: site %d out of range for %d-site table", site, t.sites))
	}
}

// popcount returns the number of set bits in b. Implemented locally to keep
// the package dependency-free beyond fmt (math/bits would also do; this is
// the classic SWAR popcount).
func popcount(b uint64) int {
	b -= (b >> 1) & 0x5555555555555555
	b = (b & 0x3333333333333333) + ((b >> 2) & 0x3333333333333333)
	b = (b + (b >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((b * 0x0101010101010101) >> 56)
}
