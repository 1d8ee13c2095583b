package chanspec

import (
	"encoding/json"
	"errors"
	"io"
)

// DecodeStrict decodes exactly one JSON document from r into v, rejecting
// unknown fields (a typo fails loudly instead of selecting a default) and
// anything but whitespace after the document (a concatenated or corrupted
// file cannot parse as its first half). Every spec, plan and session-pool
// loader decodes through it and wraps the error with its own sentinel.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON document")
	}
	return nil
}
