package cluster

import (
	"fmt"

	"minraid/internal/core"
	"minraid/internal/trace"
	"minraid/internal/transport"
)

// tcpFabric assembles a transport.Network from per-site TCP attachments
// on loopback: every database site plus the managing site owns its own
// *transport.TCP listener (ephemeral port, addresses distributed after
// all listeners are up). This is the cross-process wire (CRC framing,
// reconnect, per-sender dedup) exercised in-process; the cluster wraps it
// in the same one fault layer as the memory wire, so link cuts and seeded
// per-link faults behave identically on both.
type tcpFabric struct {
	nets map[core.SiteID]*transport.TCP
}

// newTCPFabric starts sites+1 loopback listeners and wires the address
// map.
func newTCPFabric(sites int, tracer *trace.Recorder) (*tcpFabric, error) {
	f := &tcpFabric{nets: make(map[core.SiteID]*transport.TCP, sites+1)}
	ids := make([]core.SiteID, 0, sites+1)
	for i := 0; i < sites; i++ {
		ids = append(ids, core.SiteID(i))
	}
	ids = append(ids, core.ManagingSite)

	for _, id := range ids {
		n, err := transport.NewTCP(transport.TCPConfig{
			Self:   id,
			Addrs:  map[core.SiteID]string{id: "127.0.0.1:0"},
			Tracer: tracer,
		})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: tcp fabric listener for %s: %w", id, err)
		}
		f.nets[id] = n
	}
	// Every listener is up; distribute the actual ephemeral addresses.
	for _, n := range f.nets {
		for _, id := range ids {
			n.SetAddr(id, f.nets[id].Addr())
		}
	}
	return f, nil
}

// Endpoint implements transport.Network: each site attaches through its
// own TCP network.
func (f *tcpFabric) Endpoint(id core.SiteID) (transport.Endpoint, error) {
	n, ok := f.nets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", transport.ErrUnknownSite, id)
	}
	return n.Endpoint(id)
}

// Close implements transport.Network.
func (f *tcpFabric) Close() error {
	var first error
	for _, n := range f.nets {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ transport.Network = (*tcpFabric)(nil)
