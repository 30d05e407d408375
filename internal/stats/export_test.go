package stats

import "math"

// Stddev returns the population standard deviation.
func (d *Dist) Stddev() float64 {
	n := len(d.values)
	if n == 0 {
		return 0
	}
	mean := d.Mean()
	var acc float64
	for _, v := range d.values {
		diff := float64(v) - mean
		acc += diff * diff
	}
	return math.Sqrt(acc / float64(n))
}
