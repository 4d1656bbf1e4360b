package exec

import (
	"fmt"

	"repro/internal/engines/engine"
	"repro/internal/value"
)

// Distinct removes duplicate tuples (set semantics of the pivot model).
type Distinct struct {
	In Node
	// SizeHint, when positive, pre-sizes the dedup table to the expected
	// number of distinct tuples, cutting rehashing on large inputs (e.g.
	// the materialized purchase-history path of E2). Zero means unknown.
	SizeHint int
}

func (d *Distinct) Schema() Schema   { return d.In.Schema() }
func (d *Distinct) Label() string    { return "BatchDistinct" }
func (d *Distinct) Children() []Node { return []Node{d.In} }
func (d *Distinct) Open(ec *Ctx) (engine.BatchIterator, error) {
	in, err := openNode(ec, d.In)
	if err != nil {
		return nil, err
	}
	hint := d.SizeHint
	if hint < 0 {
		hint = 0
	}
	return &distinctIter{in: in, seen: make(map[string]struct{}, hint)}, nil
}

type distinctIter struct {
	in     engine.BatchIterator
	seen   map[string]struct{}
	keyBuf []byte
}

func (it *distinctIter) NextBatch(dst *value.Batch) (int, error) {
	for {
		n, err := it.in.NextBatch(dst)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		// Compact the batch in place, keeping first occurrences. The dup
		// probe is allocation-free; the key string is materialized only
		// when the tuple is new.
		rows := dst.Rows()
		j := 0
		for _, t := range rows {
			it.keyBuf = value.AppendKey(it.keyBuf[:0], t)
			if _, dup := it.seen[string(it.keyBuf)]; dup {
				continue
			}
			it.seen[string(it.keyBuf)] = struct{}{}
			rows[j] = t
			j++
		}
		dst.Truncate(j)
		if j > 0 {
			return j, nil
		}
	}
}

func (it *distinctIter) Close() { it.in.Close() }

// ExtendConsts interleaves constant columns among the input columns: the
// output schema is Out, where positions listed in Consts carry the fixed
// value (a slot, Arg, is filled when the node opens) and the remaining
// positions take the input columns in order. The planner uses it to
// restore constant and parameter head columns after projection.
type ExtendConsts struct {
	In     Node
	Consts map[int]value.Value
	out    Schema
	varPos []int // output positions fed from the input, in input order
	// constPos/constVal are Consts flattened for the per-row loop (map
	// iteration is too slow for the vectorized inner loop).
	constPos []int
	constVal []value.Value
}

// NewExtendConsts validates widths: len(out) must equal the input width
// plus the number of constant positions, and every constant position must
// fall inside out.
func NewExtendConsts(in Node, out Schema, consts map[int]value.Value) (*ExtendConsts, error) {
	if len(out) != len(in.Schema())+len(consts) {
		return nil, fmt.Errorf("exec: extend schema width %d != input %d + %d consts",
			len(out), len(in.Schema()), len(consts))
	}
	for p := range consts {
		if p < 0 || p >= len(out) {
			return nil, fmt.Errorf("exec: constant position %d outside schema %v", p, out)
		}
	}
	e := &ExtendConsts{In: in, Consts: consts, out: out}
	for i := range out {
		if cv, isConst := consts[i]; isConst {
			e.constPos = append(e.constPos, i)
			e.constVal = append(e.constVal, cv)
		} else {
			e.varPos = append(e.varPos, i)
		}
	}
	return e, nil
}

func (e *ExtendConsts) Schema() Schema   { return e.out }
func (e *ExtendConsts) Label() string    { return fmt.Sprintf("BatchExtendConsts[%d]", len(e.Consts)) }
func (e *ExtendConsts) Children() []Node { return []Node{e.In} }
func (e *ExtendConsts) Open(ec *Ctx) (engine.BatchIterator, error) {
	in, err := openNode(ec, e.In)
	if err != nil {
		return nil, err
	}
	return &extendIter{in: in, e: e, ec: ec}, nil
}

type extendIter struct {
	in engine.BatchIterator
	e  *ExtendConsts
	ec *Ctx // fills the slots
}

func (it *extendIter) NextBatch(dst *value.Batch) (int, error) {
	n, err := it.in.NextBatch(dst)
	if err != nil || n == 0 {
		return n, err
	}
	rows := dst.Rows()
	for i, t := range rows {
		out := dst.Carve(len(it.e.out))
		for j, p := range it.e.constPos {
			out[p] = it.ec.Fill(it.e.constVal[j])
		}
		for j, p := range it.e.varPos {
			if j < len(t) {
				out[p] = t[j]
			} else {
				out[p] = value.Null{}
			}
		}
		rows[i] = out
	}
	return n, nil
}

func (it *extendIter) Close() { it.in.Close() }
