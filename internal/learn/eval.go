package learn

// JobLayout is the name-dependent half of per-job head evaluation: hash
// slots and signs for each feature position, the set of dims job features
// can touch, and the partition of the head's stumps into those that can
// move per job and those that cannot. It depends only on the prototype
// vector's feature *names* — Extract emits the same job-vector layout for
// every job of a scenario, and the names vary only with the policy — so a
// serving path can build the layout once per (head, policy) and reuse it
// across scenarios and seeds.
type JobLayout struct {
	head  *HeadModel
	slots []int     // feature position → hashed dim
	signs []float64 // feature position → hash sign
	pos   []int     // feature position → index into dims
	dims  []int     // unique dims job features touch

	varStumps []int32 // indices into head.Stumps on touched dims
	varDim    []int32 // varStumps position → index into dims
	fixStumps []int32 // indices into head.Stumps no job feature can move
}

// NewJobLayout computes the layout of h for job vectors shaped like
// proto. Every vector later passed to JobEval.Predict must carry the same
// feature names in the same order (values are free to differ).
func NewJobLayout(h *HeadModel, proto Vector) *JobLayout {
	l := &JobLayout{
		head:  h,
		slots: make([]int, 0, len(proto)),
		signs: make([]float64, 0, len(proto)),
		pos:   make([]int, 0, len(proto)),
		dims:  make([]int, 0, len(proto)),
	}
	var dimIdx [Dim]int16
	for i := range dimIdx {
		dimIdx[i] = -1
	}
	for _, f := range proto {
		idx, sign := slot(f.Name)
		l.slots = append(l.slots, idx)
		l.signs = append(l.signs, sign)
		di := dimIdx[idx]
		if di < 0 {
			di = int16(len(l.dims))
			dimIdx[idx] = di
			l.dims = append(l.dims, idx)
		}
		l.pos = append(l.pos, int(di))
	}
	l.varStumps = make([]int32, 0, len(h.Stumps))
	l.varDim = make([]int32, 0, len(h.Stumps))
	for si := range h.Stumps {
		if di := dimIdx[h.Stumps[si].Dim]; di >= 0 {
			l.varStumps = append(l.varStumps, int32(si))
			l.varDim = append(l.varDim, int32(di))
		} else {
			l.fixStumps = append(l.fixStumps, int32(si))
		}
	}
	return l
}

// EvalHashed binds the layout to one scenario's hashed base vector,
// resolving the base dot product and every stump job features cannot
// move. hv must be the scenario vector base was hashed from (the sparse
// dot over hv equals the dense dot over base by linearity of hashing).
func (l *JobLayout) EvalHashed(base []float64, hv *HashedVector) *JobEval {
	e := &JobEval{
		layout: l,
		base:   base,
		xd:     make([]float64, len(l.dims)),
		baseY:  hv.Dot(l.head.Weights),
	}
	stumps := l.head.Stumps
	for _, si := range l.fixStumps {
		s := &stumps[si]
		if base[s.Dim] <= s.Threshold {
			e.baseY += s.Left
		} else {
			e.baseY += s.Right
		}
	}
	return e
}

// JobEval scores the jobs of one scenario against a fixed hashed base.
// Each job costs O(len(vector) + touched dims + movable stumps) instead
// of O(Dim + all stumps).
type JobEval struct {
	layout *JobLayout
	base   []float64
	baseY  float64   // weights·base plus stumps on untouched dims
	xd     []float64 // scratch: current value of each touched dim
}

// Predict scores one job vector laid out like the layout's prototype. A
// vector with a different length falls back to the dense path (copy base,
// hash, full head evaluation) so a layout mismatch degrades to
// correct-but-slow.
func (e *JobEval) Predict(v Vector) float64 {
	l := e.layout
	if len(v) != len(l.slots) {
		x := make([]float64, len(e.base))
		copy(x, e.base)
		HashInto(x, v)
		return l.head.Predict(x)
	}
	for i, d := range l.dims {
		e.xd[i] = e.base[d]
	}
	for p, f := range v {
		e.xd[l.pos[p]] += l.signs[p] * f.Value
	}
	y := e.baseY
	w := l.head.Weights
	for i, d := range l.dims {
		y += w[d] * (e.xd[i] - e.base[d])
	}
	stumps := l.head.Stumps
	for vi, si := range l.varStumps {
		s := &stumps[si]
		if e.xd[l.varDim[vi]] <= s.Threshold {
			y += s.Left
		} else {
			y += s.Right
		}
	}
	return y
}

// HashedVector is a feature vector with every name's hash slot resolved
// once. Serving evaluates one scenario vector against several heads;
// hashing each name per head would dominate a microsecond-budget Run, so
// Learned.Run resolves the slots a single time and reuses them. AddTo
// keeps HashInto's exact operation order, so the dense image matches bit
// for bit.
type HashedVector struct {
	idx  []int32
	sign []float64
	val  []float64
}

// NewHashedVector resolves v's hash slots and signs.
func NewHashedVector(v Vector) *HashedVector {
	n := len(v)
	buf := make([]float64, 2*n)
	hv := &HashedVector{idx: make([]int32, n), sign: buf[:n], val: buf[n:]}
	for i, f := range v {
		idx, sign := slot(f.Name)
		hv.idx[i] = int32(idx)
		hv.sign[i] = sign
		hv.val[i] = f.Value
	}
	return hv
}

// Dot is the sparse weighted sum of the vector: equal to the dense dot
// product of w with its hashed image, without touching the zero slots.
func (hv *HashedVector) Dot(w []float64) float64 {
	var y float64
	for i, d := range hv.idx {
		y += w[d] * hv.sign[i] * hv.val[i]
	}
	return y
}

// AddTo is HashInto over the pre-resolved slots.
func (hv *HashedVector) AddTo(x []float64) {
	for i, d := range hv.idx {
		x[d] += hv.sign[i] * hv.val[i]
	}
}

// PredictHashed evaluates h on a hashed base and the vector it was
// hashed from: the linear term runs over the vector's entries, the stumps
// over the dense base. Equivalent to Predict(base) up to float summation
// order.
func (h *HeadModel) PredictHashed(base []float64, hv *HashedVector) float64 {
	y := hv.Dot(h.Weights)
	for si := range h.Stumps {
		s := &h.Stumps[si]
		if base[s.Dim] <= s.Threshold {
			y += s.Left
		} else {
			y += s.Right
		}
	}
	return y
}
