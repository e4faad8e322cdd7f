package benchkit

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// Span is one timed call into a layer, recorded from outside that layer.
// Start and End are nanoseconds since the recorder was created; Parent is
// the index of the span that caused this one (-1 for a request's root) and
// Req groups the spans of one request. In and Out are the counts at the
// boundary (candidates entering and leaving the stage).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	In     int    `json:"in,omitempty"`
	Out    int    `json:"out,omitempty"`
}

// Recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing, which is how the traced replay measures its own
// overhead. Not safe for concurrent use: the replay is sequential.
type Recorder struct {
	enabled bool
	epoch   time.Time
	spans   []Span
}

// NewRecorder returns a recorder; enabled=false makes Begin/End no-ops.
func NewRecorder(enabled bool) *Recorder {
	return &Recorder{enabled: enabled, epoch: time.Now()}
}

// Begin opens a span and returns its handle (-1 when disabled).
func (r *Recorder) Begin(name string, parent, req int) int {
	if !r.enabled {
		return -1
	}
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// End closes the span with the counts seen at its boundary.
func (r *Recorder) End(id, in, out int) {
	if id < 0 {
		return
	}
	sp := &r.spans[id]
	sp.End = int64(time.Since(r.epoch))
	sp.In, sp.Out = in, out
}

// Spans returns the recorded spans in Begin order.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes sums, per span name, each span's duration minus the part its
// direct children cover — the time the layer spent itself.
func SelfTimes(spans []Span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, sp := range spans {
		out[sp.Name] += time.Duration(sp.End - sp.Start - child[i])
	}
	return out
}

// WriteJSONL writes one JSON object per span.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
