package netapi

// FreeBoxes reports the length of a spawner's free list.
func FreeBoxes[T any](s *Spawner[T]) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}
