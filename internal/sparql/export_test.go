package sparql

// MalformedSources exposes the parser tests' rejected inputs to the
// external test package (which may import watdiv; this one may not).
func MalformedSources() []string {
	out := make([]string, len(parseErrorCases))
	for i, c := range parseErrorCases {
		out[i] = c.src
	}
	return out
}
