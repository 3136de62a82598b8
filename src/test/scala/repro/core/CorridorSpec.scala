package repro.core

import repro.SparkSpec
import repro.data.GraphGen

/** [[Corridor]] against its definition: the vertices with
  * Δ(s,y)+Δ(y,t) ≤ k, the window edges of [[Bfs.window]], and the exact
  * distances, for every search mode.
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
        val d   = Bfs.distances(g, s, t, k, mode)
        val cor = Corridor(g, d, k)
        val dS  = Bfs.bounded(g.outAdj, g.n, s, k)
        val dT  = Bfs.bounded(g.inAdj, g.n, t, k)
        assert(cor.ids.toSeq == (0 until g.n).filter(y => dS(y) + dT(y) <= k), q)
        assert((1 until cor.ids.length).forall(i => cor.ids(i - 1) < cor.ids(i)), q)
        assert(cor.global(cor.graph.encodedEdges).sameElements(Bfs.window(g, d, k)), q)
        val rebuilt = LocalGraph.fromEncodedEdges(cor.graph.n, cor.graph.encodedEdges)
        assert(cor.graph.inAdj.map(_.toSeq).toSeq == rebuilt.inAdj.map(_.toSeq).toSeq, s"in-lists $q")
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
