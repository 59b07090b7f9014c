package sigproc

// FiltFilt applies the Butterworth filter forward and then backward over
// the series, yielding zero-phase (no group delay) smoothing. Streaming
// use cases need the BF+AKF cascade (delay matters for a live UI); batch
// estimation at the end of a measurement can use FiltFilt instead, which
// removes the systematic time lag between the RSS trend and the motion
// track that group delay would otherwise introduce into the regression.
func FiltFilt(bf *Butterworth, xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	ys := bf.FilterInto(nil, xs)
	reverseFloats(ys)
	ys = bf.FilterInto(ys, ys)
	reverseFloats(ys)
	return ys
}

func reverseFloats(xs []float64) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
