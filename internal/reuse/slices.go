package reuse

// Resize returns s resliced to length n, reallocated only when its
// capacity is short. It does not clear what s held.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reserve returns s emptied, with capacity for at least n elements.
func Reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}
