package routing

import (
	"fmt"

	"github.com/unroller/unroller/internal/dataplane"
)

// InstallInto programs net's FIBs for destination dst from the
// protocol's current tables — including mid-convergence states, which is
// how transient routing loops reach the data plane. Routers without a
// route to dst get no FIB entry: one already installed is withdrawn, as
// a Delta Clear would (their packets drop as no-route, the honest
// outcome during an outage).
func (p *Protocol) InstallInto(net *dataplane.Network, dst int) error {
	if net.Graph != p.g {
		return fmt.Errorf("routing: network is built on a different graph")
	}
	dstID := net.Assign.ID(dst)
	for u := 0; u < p.g.N(); u++ {
		if u == dst {
			continue
		}
		next, ok := p.NextHop(u, dst)
		if !ok {
			net.Switch(u).ClearRoute(dstID)
			continue
		}
		port, err := net.PortTo(u, next)
		if err != nil {
			return fmt.Errorf("routing: install for node %d: %w", u, err)
		}
		if err := net.Switch(u).SetRoute(dstID, port); err != nil {
			return err
		}
	}
	return nil
}
