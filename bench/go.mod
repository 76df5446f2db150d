// The benchmark is a module of its own so it builds from its own
// directory; the module path sits under atgis/ so it may import the
// engine's internal packages, which it times from outside.
module atgis/bench

go 1.24

require atgis v0.0.0

replace atgis => ../
