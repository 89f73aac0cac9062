package branchpred

// Clone returns an independent deep copy of a predictor: training either
// copy never disturbs the other. The stateless predictors (Static, Oracle)
// are returned as-is, and a nil predictor (the pipeline's perfect-prediction
// mode) clones to nil. Sampled simulation uses this to capture a
// functionally-warmed predictor once and hand an independent copy to each
// detailed window.
func Clone(p Predictor) Predictor { return CloneInto(nil, p) }

// CloneInto returns an independent deep copy of src like Clone, but writes
// it into dst's tables when dst is a predictor of the same kind, allocating
// nothing once the tables have reached src's sizes. dst must be private to the caller: its previous state
// is overwritten. Recycled sampling windows reinstall a warmed predictor
// this way instead of allocating fresh tables per window.
func CloneInto(dst, src Predictor) Predictor {
	switch t := src.(type) {
	case nil:
		return nil
	case *TAGE:
		cp, ok := dst.(*TAGE)
		if !ok || cp == t {
			cp = &TAGE{}
		}
		base, tables, loop, sc := cp.base, cp.tables, cp.loop, cp.sc
		*cp = *t
		cp.base = append(base[:0], t.base...)
		for i := range cp.tables {
			cp.tables[i] = append(tables[i][:0], t.tables[i]...)
		}
		if loop == nil {
			loop = new(loopPredictor)
		}
		*loop = *t.loop
		cp.loop = loop
		cp.sc = append(sc[:0], t.sc...)
		return cp
	case *Bimodal:
		cp, ok := dst.(*Bimodal)
		if !ok || cp == t {
			cp = &Bimodal{}
		}
		table := cp.table
		*cp = *t
		cp.table = append(table[:0], t.table...)
		return cp
	default:
		// Static and Oracle carry no mutable state.
		return src
	}
}

// Clone returns an independent deep copy of the return-address stack,
// including its hit statistics.
func (r *RAS) Clone() *RAS {
	cp := &RAS{}
	cp.CopyFrom(r)
	return cp
}

// CopyFrom makes r an independent copy of src, statistics included, reusing
// r's stack storage.
func (r *RAS) CopyFrom(src *RAS) {
	stack := r.stack
	*r = *src
	r.stack = append(stack[:0], src.stack...)
}
