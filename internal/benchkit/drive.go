package benchkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is the outcome of one op as the client saw it.
type Sample struct {
	Status int // HTTP status; 0 when the request failed before a response
	// Latency runs to the last byte of the response: from the send in a
	// closed loop, from the instant the request was due in an open loop,
	// so a stall taxes the requests queued behind it.
	Latency time.Duration
	// Lag is how late the generator woke for this op (timer wake-up minus
	// due instant). It is -1 when the worker did not sleep, that is in a
	// closed loop or when the op was already overdue behind a busy
	// connection: connection wait is the server's doing, not the generator's.
	Lag  time.Duration
	Body []byte // response body, kept for the answer checker
	Err  error
}

// Pass is one run of the op list.
type Pass struct {
	Samples []Sample // indexed like the op list
	Wall    time.Duration
}

// Driver issues an op list against a server over a fixed number of
// persistent connections, one goroutine per connection.
type Driver struct {
	Client  *http.Client
	BaseURL string
	Clients int
}

// NewDriver returns a driver whose transport keeps exactly clients
// keep-alive connections to the server.
func NewDriver(baseURL string, clients int) *Driver {
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		IdleConnTimeout:     5 * time.Minute,
	}
	return &Driver{Client: &http.Client{Transport: tr}, BaseURL: baseURL, Clients: clients}
}

// Close drops the driver's idle connections.
func (d *Driver) Close() { d.Client.CloseIdleConnections() }

// DefaultClients is the load the generator offers: as many connections as
// the machine has cores to serve them, at most two.
func DefaultClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// Run issues ops once. rate = 0 runs a closed loop: each connection sends
// its next op when the previous one completed. rate > 0 runs an open loop:
// op i is due i/rate seconds after the start whatever the server does.
// Either way the connections pull ops from one shared cursor, so no
// connection idles while work is left.
func (d *Driver) Run(ops []Op, rate float64) Pass {
	samples := make([]Sample, len(ops))
	// ids[i] is 1 + the id the server assigned to single add i, 0 until its
	// acknowledgement arrives; deletes read their target's slot.
	ids := make([]atomic.Int64, len(ops))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := Sample{Lag: -1}
				sent := time.Now()
				if rate > 0 {
					due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						s.Lag = time.Since(due)
					}
					sent = due
				}
				s.Status, s.Body, s.Err = d.do(&ops[i], ids)
				s.Latency = time.Since(sent)
				if s.Err == nil && ops[i].Kind == KindAdd && s.Status == http.StatusCreated {
					var ack struct {
						ID uint32 `json:"id"`
					}
					if s.Err = json.Unmarshal(s.Body, &ack); s.Err == nil {
						ids[i].Store(int64(ack.ID) + 1)
					}
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return Pass{Samples: samples, Wall: time.Since(start)}
}

func (d *Driver) do(op *Op, ids []atomic.Int64) (int, []byte, error) {
	if op.Kind != KindDelete {
		return d.Do(http.MethodPost, op.Kind.Path(), op.Body)
	}
	// The target is an add of an earlier block; its acknowledgement is at
	// most one request away on the other connection.
	deadline := time.Now().Add(10 * time.Second)
	id := ids[op.Target].Load()
	for ; id == 0; id = ids[op.Target].Load() {
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("benchkit: delete op waited 10s for the id of add op %d", op.Target)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return d.Do(http.MethodDelete, op.Kind.Path()+strconv.FormatInt(id-1, 10), nil)
}

// Do sends one request and reads the whole response.
func (d *Driver) Do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.BaseURL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
