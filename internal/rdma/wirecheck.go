package rdma

import "prism/internal/transport"

// SetWireCheck toggles wire-check mode for subsequently transmitted
// messages, on every transport a process uses (it is
// transport.SetWireCheck). The fabric carries *wire.Request/*wire.Response
// pointers and charges bandwidth from RequestWireSize/ResponseWireSize, so
// the byte codec is normally off the simulated hot path. With wire check
// enabled, every transmitted message is append-encoded into
// connection-owned scratch (a transport.WireCheckState per connection end,
// so domain-parallel simulations share no buffers), alias-decoded back, and
// verified field-for-field against the in-memory message — proving on live
// traffic that the wire layout, the alias decoders, and the size accounting
// agree. Off by default; tests and debugging sessions opt in before the
// simulation runs.
func SetWireCheck(on bool) { transport.SetWireCheck(on) }
