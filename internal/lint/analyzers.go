package lint

// All returns the full analyzer suite in reporting order. It is a
// function (not a package-level slice) because ignore-hygiene consults
// the registry at run time to validate rule names in //lint:ignore
// directives; a variable would create an initialization cycle.
func All() []*Analyzer {
	return []*Analyzer{
		batchProtocol,
		cowEscape,
		ctxPropagation,
		hotPathAlloc,
		ignoreHygiene,
		sentinelErrors,
	}
}
