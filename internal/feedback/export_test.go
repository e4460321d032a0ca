package feedback

// FSMCircuit exposes fsmCircuit to the external tests.
var FSMCircuit = fsmCircuit
