package repro.core

import repro.SparkSpec
import repro.data.GraphGen

/** Exact relations between whole answers, which need no enumeration oracle
  * and so run on power-law graphs with hubs, beyond brute force's reach:
  *  - configuration: the Adaptive, BiDir and Single searches and Naive EVE
  *    give the same SPG;
  *  - reversal: SPG_k(t,s) on G^r is SPG_k(s,t) with every edge reversed.
  * Reversal swaps out- and in-degrees, so on G^r the Adaptive search splits
  * its phase 1 between other frontiers and the corridor build meets other
  * hubs; Naive EVE builds no corridor at all.
  */
class MetamorphicSpec extends SparkSpec {

  private val graphs = Seq(
    "power-law a=0.9" -> GraphGen.powerLaw(1500, 6000, alpha = 0.9, seed = 41),
    "power-law a=1.2" -> GraphGen.powerLaw(1500, 4500, alpha = 1.2, seed = 43),
  )
  private val configs = Seq(
    "BiDir"  -> EveConfig(search = Bfs.SearchMode.BiDir),
    "Single" -> EveConfig(search = Bfs.SearchMode.Single),
    "Naive"  -> EveConfig.Naive,
  )

  private def reversed(edges: Array[Long]): Array[Long] =
    edges.map(e => LocalGraph.enc(LocalGraph.dst(e), LocalGraph.src(e))).sorted

  for ((gName, g) <- graphs) {
    test(s"$gName has hubs") {
      assert(g.maxDeg >= 100, s"max degree ${g.maxDeg}")
    }
    for (k <- 4 to 7) {
      test(s"configuration and reversal relations ($gName, k=$k)") {
        val gr = g.reverse
        for ((s, t) <- GraphGen.queries(g, k, 6, seed = 100L + k)) {
          val q   = s"($s,$t)"
          val spg = Eve.run(g, s, t, k).edges
          for ((name, cfg) <- configs) assert(Eve.run(g, s, t, k, cfg).edges.sameElements(spg), s"$name $q")
          assert(Eve.run(gr, t, s, k).edges.sameElements(reversed(spg)), s"reversal $q")
        }
      }
    }
  }
}
