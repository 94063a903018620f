package arq

import (
	"protodsl/internal/faults"
	"protodsl/internal/netsim"
)

// newSimPair builds the simulator a RunTransfer* call runs on: endpoints
// "sender" and "receiver" joined by link in both directions, with one
// private fault-injector instance per direction (ids 0 and 1) when sch
// is non-nil. A nil schedule takes the plain symmetric Connect path, so
// faults-off runs stay byte-identical to the pinned golden traces.
func newSimPair(seed int64, link netsim.LinkParams, sch *faults.Schedule) (*netsim.Sim, *netsim.Endpoint, *netsim.Endpoint, error) {
	sim := netsim.New(seed)
	sEP, err := sim.NewEndpoint("sender")
	if err != nil {
		return nil, nil, nil, err
	}
	rEP, err := sim.NewEndpoint("receiver")
	if err != nil {
		return nil, nil, nil, err
	}
	if sch == nil {
		sim.Connect(sEP, rEP, link)
		return sim, sEP, rEP, nil
	}
	fwd, rev := link, link
	fi, err := sch.Instance(0)
	if err != nil {
		return nil, nil, nil, err
	}
	ri, err := sch.Instance(1)
	if err != nil {
		return nil, nil, nil, err
	}
	fwd.Faults, rev.Faults = fi, ri
	sim.ConnectDirectional(sEP, rEP, fwd)
	sim.ConnectDirectional(rEP, sEP, rev)
	return sim, sEP, rEP, nil
}
