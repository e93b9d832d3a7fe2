package knobs

// higher is test code: it varies Level, which the program never does.
func higher() int {
	c := DefaultConfig()
	c.Level = 9
	return NewThing("x", c.Level)
}
