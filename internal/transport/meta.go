package transport

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"prism/internal/prism"
	"prism/internal/wire"
)

// RPCMeta is the control-plane opcode, reserved here: both servers answer
// a one-byte SEND of it with the Meta their store published, before the
// store's RPC handler sees anything. So a client needs only an address to
// learn the rkeys, base addresses and free-list ids its verbs name
// (DESIGN.md §12).
const RPCMeta byte = 0

// PublishMeta names the store the host serves and the Meta its clients
// fetch. A store calls it once, where its CPU half is installed.
func (h *HostCore) PublishMeta(app string, meta any) {
	h.app, h.meta, h.metaJSON = app, meta, nil
}

// RPCFor returns the handler that answers an RPC payload: the control
// plane for a one-byte RPCMeta, else the store's handler (nil when none).
func (h *HostCore) RPCFor(payload []byte) RPCHandler {
	if len(payload) == 1 && payload[0] == RPCMeta {
		return h.serveMeta
	}
	return h.handler
}

// serveMeta answers RPCMeta with the JSON of {app, meta}, encoded on the
// first fetch and cached under the serialization RPC dispatch already has
// (rpcMu live, the engine in the simulator). Simulated clients are handed
// their Meta, so the simulator never encodes.
func (h *HostCore) serveMeta([]byte) ([]byte, time.Duration) {
	if h.metaJSON == nil {
		b, err := json.Marshal(map[string]any{"app": h.app, "meta": h.meta})
		if err != nil {
			panic(fmt.Sprintf("transport: %s meta does not encode: %v", h.app, err))
		}
		h.metaJSON = b
	}
	return h.metaJSON, 0
}

// FetchMeta fetches over conn the Meta a server's store published under
// app into meta, a pointer to that store's Meta type, rejecting fields
// that type lacks. It fails if the server serves another app, or none.
func FetchMeta(conn Issuer, app string, meta any) error {
	ops := conn.Ops(1)
	ops[0] = prism.Send([]byte{RPCMeta})
	res, err := conn.Issue(ops)
	if err != nil {
		return err
	}
	if res[0].Status != wire.StatusOK {
		return fmt.Errorf("transport: %s meta fetch: status %v", app, res[0].Status)
	}
	var reply struct {
		App  string
		Meta json.RawMessage
	}
	if err := json.Unmarshal(res[0].Data, &reply); err != nil {
		return fmt.Errorf("transport: %s meta reply: %w", app, err)
	}
	if reply.App != app {
		return fmt.Errorf("transport: server serves %s, not %s", cmp.Or(reply.App, "no app"), app)
	}
	dec := json.NewDecoder(bytes.NewReader(reply.Meta))
	dec.DisallowUnknownFields()
	if err := dec.Decode(meta); err != nil {
		return fmt.Errorf("transport: %s meta: %w", app, err)
	}
	return nil
}

// DialMeta dials a server at addr (a unix path or host:port), opens one
// connection and fetches app's Meta into meta over it.
func DialMeta(addr, app string, meta any) (*Client, *Conn, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	conn, err := c.Connect()
	if err == nil {
		err = FetchMeta(conn, app, meta)
	}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, conn, nil
}
