package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one replayed request share req; parent
// is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a slab allocated up front, so recording a span
// during a replay costs two clock reads and no allocation.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return s.End - s.Start
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].End-t.spans[i].Start)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := spans[i]
		iv := kids[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, at := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], at), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to the module it measures: the text before the
// first dot ("core.exec_open_first" → "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// chainShares splits the time of the replayed requests of one pass ("cold"
// or "warm") over the layers. For every request, a layer's part is the self
// time of its spans under the request's decomposed replay, as a share of
// what the same request took through the service; the layer's share is the
// median of those parts over the requests. "service" additionally gets what
// is left of the whole (cache lookup, admission, trimming, accounting glue).
// Medians of per-request shares, because requests of one workload differ by
// orders of magnitude and one collector cycle would otherwise own a sum.
func chainShares(spans []span, pass string) map[string]float64 {
	svc := map[int32]float64{}               // request → time through the service
	perReq := map[string]map[int32]float64{} // layer → request → time
	self := selfTimes(spans)
	for i := range spans {
		s := spans[i]
		switch {
		case s.Name == "service.request."+pass:
			svc[s.Req] = float64(s.End - s.Start)
		case s.Parent >= 0 && spans[s.Parent].Name == "decomposed."+pass:
			l := layerOf(s.Name)
			if perReq[l] == nil {
				perReq[l] = map[int32]float64{}
			}
			perReq[l][s.Req] += float64(self[i])
		}
	}
	if len(svc) == 0 {
		return nil
	}
	out := map[string]float64{}
	glue := 1.0
	for l, byReq := range perReq {
		parts := make([]float64, 0, len(svc))
		for req, total := range svc {
			parts = append(parts, byReq[req]/total) // 0 for a request that never entered the layer
		}
		out[l] = median(parts)
		glue -= out[l]
	}
	if glue > 0 {
		out["service"] += glue
	}
	return out
}

// writeTrace writes the spans as one JSON array.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
