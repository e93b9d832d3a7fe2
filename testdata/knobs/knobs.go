// Package knobs is the knob guard's fixture (TestKnobGuardFlagsFixture in
// reach_test.go): of its four settable values the program sets two to one
// constant each.
package knobs

// NewThing sizes a thing. Every program call passes name "", so name is a
// knob; size takes two constants, so it is not.
func NewThing(name string, size int) int { return len(name) + size }

// Config is a config struct.
type Config struct {
	// Level is set once, in DefaultConfig; only a test varies it.
	Level int
	// Wire is filled by encoding/json, so the guard leaves it alone.
	Wire int `json:"wire"`
}

// DefaultConfig returns the one configuration the program uses.
func DefaultConfig() Config { return Config{Level: 3, Wire: 1} }

// Use is the program.
func Use() int {
	c := DefaultConfig()
	return NewThing("", 1) + NewThing("", 2) + c.Level + c.Wire
}
