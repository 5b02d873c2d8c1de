package core

// ReferencePredict exposes the eq-by-eq oracle to the external core_test
// package, whose speedup gate scores its baseline with it.
var ReferencePredict = referencePredict
