package constraint

// ConstrWindowsErr exports constrWindowsErr to the external tests.
var ConstrWindowsErr = constrWindowsErr
