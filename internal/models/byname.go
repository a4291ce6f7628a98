package models

import "repro/internal/spec"

// ByName returns the built-in model of that name — settop | decoder |
// sdr | synthetic, where seed parameterizes synthetic — and false for
// an unknown name.
func ByName(name string, seed int64) (*spec.Spec, bool) {
	switch name {
	case "settop":
		return SetTopBox(), true
	case "decoder":
		return Decoder(), true
	case "sdr":
		return SDR(), true
	case "synthetic":
		return Synthetic(DefaultSynthetic(seed)), true
	}
	return nil, false
}
