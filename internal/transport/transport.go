// Package transport moves protocol messages between sites.
//
// Two wires are provided:
//
//   - Memory: all sites in one process, delivered on the sender's
//     goroutine into the receiver's inbox, in order per destination, with
//     an optional fixed per-hop latency. This reproduces the paper's setup,
//     where "database sites were implemented as Unix processes (on one
//     processor with one process per site)" and inter-site communication
//     reduced to interprocess communication with a measured cost of nine
//     milliseconds (§2.1). Setting Delay to 9 ms reproduces the paper's
//     absolute time scale; setting it to zero measures pure protocol cost.
//
//   - TCP: each site in its own OS process, real sockets, CRC-framed
//     messages, ordered per-connection delivery with reconnection. This is
//     the "complete RAID" deployment the paper defers to future work.
//
// Both satisfy the paper's reliability assumption (§1.2, assumption 1):
// no loss, per-link FIFO order, no undetected corruption. Chaos is the one
// layer that breaks it: wrapped around either wire, it owns every link
// cut, drop-after budget and seeded drop, duplicate or delay.
package transport

import (
	"errors"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// Errors common to all transports.
var (
	// ErrClosed is returned by operations on a closed network or endpoint.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownSite is returned when sending to a site the network does
	// not know.
	ErrUnknownSite = errors.New("transport: unknown site")
)

// Endpoint is one site's attachment to the network.
//
// Send enqueues an envelope for delivery and never blocks on the receiver;
// delivery order is FIFO per (sender, receiver) pair. Every wire encodes
// the envelope before Send returns, so the sender may reuse it and its
// body afterwards. Recv blocks until a message arrives, returning ok=false
// once the endpoint is closed and drained.
type Endpoint interface {
	// ID returns the site this endpoint belongs to.
	ID() core.SiteID
	// Send enqueues env for delivery to env.To.
	Send(env *msg.Envelope) error
	// Recv pops the next inbound message in delivery order.
	Recv() (env *msg.Envelope, ok bool)
	// Close detaches the endpoint; pending Recv calls drain then return
	// ok=false.
	Close() error
}

// wireEndpoint is a Memory or TCP endpoint: sendAt is Send with delivery
// held until due, and Send is sendAt at once (the zero time).
type wireEndpoint interface {
	Endpoint
	sendAt(env *msg.Envelope, due time.Time) error
}

// Network connects a fixed set of sites.
type Network interface {
	// Endpoint returns the attachment for site id. Each site's endpoint
	// may be requested once; implementations return the same instance on
	// repeated calls.
	Endpoint(id core.SiteID) (Endpoint, error)
	// Close shuts the whole network down.
	Close() error
}

// siteSlot returns id's index in a table laid out as the database sites
// 0..sites-1 followed by the managing site, or ok=false if id is neither.
// Memory indexes its endpoints and Chaos its link table with it.
func siteSlot(id core.SiteID, sites int) (slot int, ok bool) {
	switch {
	case id == core.ManagingSite:
		return sites, true
	case int(id) < sites:
		return int(id), true
	}
	return 0, false
}

// slotSite is the inverse of siteSlot.
func slotSite(slot, sites int) core.SiteID {
	if slot == sites {
		return core.ManagingSite
	}
	return core.SiteID(slot)
}
