package core

import (
	"encoding/gob"
	"io"
)

// init pins gob type IDs for the model and checkpoint wire types; see
// internal/nn/gobwarm.go for why first-encode order must not depend on
// the runtime path. The Checkpoint warm transitively covers its nn
// field types as well, but nn's own warm runs first (a package's init
// runs after its imports'), so the IDs the model bytes carry for them
// are the ones nn assigns.
func init() {
	enc := gob.NewEncoder(io.Discard)
	//lint:ignore unchecked-error warming the global gob type registry; encoding zero values of concrete wire types cannot fail
	enc.Encode(modelHeader{})
	//lint:ignore unchecked-error warming the global gob type registry; encoding zero values of concrete wire types cannot fail
	enc.Encode(Checkpoint{})
}
