package exp

// Len reports the number of cached keys.
func (c *TableCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
