package depinf

// ExportedFields returns a copy of r that keeps only its exported fields,
// the ones its JSON form carries, so that reflect.DeepEqual compares two
// relations by what they describe, whether Parse made them or not.
func ExportedFields(r *Relation) *Relation {
	c := *r
	c.parsed = nil
	return &c
}
