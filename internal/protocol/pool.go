package protocol

// MsgPool recycles protocol message objects. An election allocates one
// message object per accepted send on the hot path; with a pool, the
// receiving node returns each object (and its IDs backing array) after
// handling it, and its own outbox draws from the pool for the next sends.
// Pools are strictly per-node: only the owning node's Step touches one, so
// the concurrent execution mode needs no locking. Object identity never
// carries protocol meaning, so pooling cannot change a run's behavior.
//
// Callers must only Put messages they have fully consumed: a pooled
// message's fields and IDs array are overwritten on reuse.
type MsgPool struct {
	tokens []*TokenMsg
	ups    []*UpMsg
	downs  []*DownMsg
}

// PutToken recycles a token batch message.
func (p *MsgPool) PutToken(m *TokenMsg) {
	if p == nil {
		return
	}
	p.tokens = append(p.tokens, m)
}

// PutUp recycles a convergecast message.
func (p *MsgPool) PutUp(m *UpMsg) {
	if p == nil {
		return
	}
	p.ups = append(p.ups, m)
}

// PutDown recycles a downcast message.
func (p *MsgPool) PutDown(m *DownMsg) {
	if p == nil {
		return
	}
	p.downs = append(p.downs, m)
}

// Put recycles any protocol message; non-protocol messages are ignored.
func (p *MsgPool) Put(m interface{ Kind() string }) {
	switch t := m.(type) {
	case *TokenMsg:
		p.PutToken(t)
	case *UpMsg:
		p.PutUp(t)
	case *DownMsg:
		p.PutDown(t)
	}
}

// token pops a recycled token message or allocates a fresh one.
func (p *MsgPool) token() *TokenMsg {
	if p == nil || len(p.tokens) == 0 {
		return &TokenMsg{}
	}
	m := p.tokens[len(p.tokens)-1]
	p.tokens = p.tokens[:len(p.tokens)-1]
	*m = TokenMsg{}
	return m
}

// up pops a recycled convergecast message or allocates a fresh one. Its
// IDs start empty on storage the message owns (see ownIDs).
func (p *MsgPool) up() *UpMsg {
	var m *UpMsg
	if p == nil || len(p.ups) == 0 {
		m = &UpMsg{}
	} else {
		m = p.ups[len(p.ups)-1]
		p.ups = p.ups[:len(p.ups)-1]
	}
	ids := m.IDs
	*m = UpMsg{}
	m.IDs = ownIDs(ids, &m.one)
	return m
}

// down pops a recycled downcast message or allocates a fresh one.
func (p *MsgPool) down() *DownMsg {
	var m *DownMsg
	if p == nil || len(p.downs) == 0 {
		m = &DownMsg{}
	} else {
		m = p.downs[len(p.downs)-1]
		p.downs = p.downs[:len(p.downs)-1]
	}
	ids := m.IDs
	*m = DownMsg{}
	m.IDs = ownIDs(ids, &m.one)
	return m
}

// ownIDs returns an empty id slice for a message to fill: the heap array it
// kept from an earlier multi-id fragment, else its inline array, so a
// one-id fragment costs no allocation beyond the message. A slice with
// room for one id is never kept: it may be another message's inline array.
func ownIDs(ids []ID, one *[1]ID) []ID {
	if cap(ids) > len(one) {
		return ids[:0]
	}
	return one[:0]
}
