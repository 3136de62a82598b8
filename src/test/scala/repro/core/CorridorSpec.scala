package repro.core

import repro.SparkSpec
import repro.data.GraphGen

/** [[Corridor]] against its definition: the vertices with
  * Δ(s,y)+Δ(y,t) ≤ k, the window edges Δ(s,u)+1+Δ(v,t) ≤ k, and the exact
  * distances, for every search mode; all from two full k-bounded BFS.
  */
class CorridorSpec extends SparkSpec {

  private val graphs = Seq(
    "uniform"   -> GraphGen.uniform(150, 420, 5),
    "power-law" -> GraphGen.powerLaw(400, 1200, alpha = 0.9, seed = 3),
  )
  private val modes = Seq(Bfs.SearchMode.Single, Bfs.SearchMode.BiDir, Bfs.SearchMode.Adaptive)

  for ((gName, g) <- graphs; mode <- modes; k <- 1 to 8) {
    test(s"corridor vertices, window edges and distances ($gName, $mode, k=$k)") {
      for ((s, t) <- GraphGen.queries(g, k, 5, seed = k * 7L) :+ ((0, g.n - 1))) {
        val q   = s"($s,$t)"
        val cor = Corridor.of(g, s, t, k, mode)
        val dS  = Bfs.bounded(g.outOff, g.outDst, s, k)
        val dT  = Bfs.bounded(g.inOff, g.inSrc, t, k)
        assert(cor.ids.toSeq == (0 until g.n).filter(y => dS(y) + dT(y) <= k), q)
        assert((1 until cor.ids.length).forall(i => cor.ids(i - 1) < cor.ids(i)), q)
        val window = g.encodedEdges.filter(e => Bfs.inWindow(dS(LocalGraph.src(e)), dT(LocalGraph.dst(e)), k))
        assert(cor.global(cor.graph.encodedEdges).sameElements(window), q)
        val rebuilt = LocalGraph.fromEncodedEdges(cor.graph.n, cor.graph.encodedEdges)
        assert((0 until cor.graph.n).map(cor.graph.inAdj(_).toSeq) == (0 until rebuilt.n).map(rebuilt.inAdj(_).toSeq),
          s"in-lists $q")
        for (i <- cor.ids.indices) {
          val y = cor.ids(i)
          assert(cor.dists.fromS(i) == dS(y) && cor.dists.toT(i) == dT(y), s"$q at $y")
          assert(cor.local(y) == i, s"$q at $y")
        }
        assert((0 until g.n).filterNot(cor.ids.contains).forall(cor.local(_) == -1), q)
      }
    }
  }
}
