package groupsim

// OracleConnected and OracleComponents answer ConnectedNow and
// KnowledgeComponents from the materialized knowledgeGraph, for the
// differential test in package groupsim_test.
func (e *Engine) OracleConnected() bool {
	g, alive := e.knowledgeGraph()
	return g.IsConnectedRestricted(alive)
}

func (e *Engine) OracleComponents() [][]int {
	g, _ := e.knowledgeGraph()
	return g.Components()
}

// Base returns the id offset of slot 0.
func (e *Engine) Base() int { return e.base }
