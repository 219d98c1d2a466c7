package main

import (
	"time"

	"xmovie/internal/mcam"
	"xmovie/internal/presentation"
	"xmovie/internal/session"
)

// codecCost is the isolated cost of each layer's public codec on the
// control messages a traced run saw on the wire.
type codecCost struct {
	// Messages decoded per layer, and how many a layer refused.
	sessionN, presentationN, mcamN          int
	sessionErr, presentationErr, mcamErr    int
	sessionNs, presentationNs, mcamDecodeNs float64
	mcamEncodeNs                            float64
}

// replayBudget is roughly how long the replay times each stage.
const replayBudget = 200 * time.Millisecond

// replayCodecs peels each message layer by layer (session SPDU,
// presentation PPDU, MCAM PDU) and times every layer's decode, and the
// MCAM encode, in isolation over the whole message set.
func replayCodecs(msgs [][]byte) codecCost {
	var c codecCost
	var ppdus, pdus [][]byte
	var decoded []*mcam.PDU
	for _, m := range msgs {
		spdu, err := session.Parse(m)
		if err != nil {
			c.sessionErr++
			continue
		}
		c.sessionN++
		ud := spdu.UserData()
		if len(ud) == 0 {
			continue // FN, DN and the like carry no presentation PDU
		}
		ppdu, err := presentation.Decode(ud)
		if err != nil {
			c.presentationErr++
			continue
		}
		c.presentationN++
		ppdus = append(ppdus, ud)
		if ppdu.TD == nil {
			continue
		}
		pdu, err := mcam.Decode(ppdu.TD.Data)
		if err != nil {
			c.mcamErr++
			continue
		}
		c.mcamN++
		pdus = append(pdus, ppdu.TD.Data)
		decoded = append(decoded, pdu)
	}
	c.sessionNs = timePerItem(len(msgs), func(i int) { _, _ = session.Parse(msgs[i]) })
	c.presentationNs = timePerItem(len(ppdus), func(i int) { _, _ = presentation.Decode(ppdus[i]) })
	c.mcamDecodeNs = timePerItem(len(pdus), func(i int) { _, _ = mcam.Decode(pdus[i]) })
	c.mcamEncodeNs = timePerItem(len(decoded), func(i int) { _, _ = decoded[i].Encode() })
	return c
}

// timePerItem runs f over items 0..n-1 in rounds until replayBudget has
// passed and returns the mean ns per call.
func timePerItem(n int, f func(int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	calls := 0
	for time.Since(start) < replayBudget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
