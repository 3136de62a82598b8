package repro.data

import repro.core.{Bfs, LocalGraph}
import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic digraph generators and the mini-scale stand-ins
  * for the paper's 15 real networks (Table 2). See DESIGN.md §3 for the
  * substitution rationale: sizes are laptop-scale, the *relative density*
  * ordering of the originals is preserved, since density is what drives the
  * path-count explosion the paper's experiments measure.
  */
object GraphGen {

  /** Uniform random digraph: m distinct edges, no self loops. */
  def uniform(n: Int, m: Int, seed: Long): LocalGraph = {
    val rnd   = new Random(seed)
    val edges = mutable.Set[(Int, Int)]()
    val limit = math.min(m.toLong, n.toLong * (n - 1)).toInt
    while (edges.size < limit) {
      val u = rnd.nextInt(n); val v = rnd.nextInt(n)
      if (u != v) edges += ((u, v))
    }
    LocalGraph.fromEdges(n, edges)
  }

  /** Power-law digraph: each of ~m edges picks its endpoints from a zipf
    * distribution over a randomly permuted vertex ranking (hub ids are not
    * clustered at 0). Models web/social graphs with heavy-tailed degrees.
    */
  def powerLaw(n: Int, m: Int, alpha: Double, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    // Cumulative zipf weights over ranks 1..n.
    val cum = new Array[Double](n)
    var acc = 0.0
    var i   = 0
    while (i < n) { acc += 1.0 / math.pow(i + 1, alpha); cum(i) = acc; i += 1 }
    val perm = rnd.shuffle((0 until n).toVector).toArray
    def draw(): Int = {
      val x  = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) < x) lo = mid + 1 else hi = mid }
      perm(lo)
    }
    val edges = mutable.Set[(Int, Int)]()
    var tries = 0L
    val maxTries = m.toLong * 20
    while (edges.size < m && tries < maxTries) {
      // Mix a zipf endpoint with a uniform one so hubs have both high
      // in- and out-degree without the graph collapsing onto few vertices.
      val u = if (rnd.nextBoolean()) draw() else rnd.nextInt(n)
      val v = if (rnd.nextBoolean()) draw() else rnd.nextInt(n)
      if (u != v) edges += ((u, v))
      tries += 1
    }
    LocalGraph.fromEdges(n, edges)
  }

  sealed trait Kind
  object Kind {
    case object Uniform  extends Kind
    case object PowerLaw extends Kind
  }

  /** One mini-scale stand-in dataset. `paperV`/`paperE` record the original
    * network's size for the Table 2 reproduction.
    */
  final case class DatasetSpec(
      name: String,
      original: String,
      domain: String,
      n: Int,
      avgDeg: Double,
      kind: Kind,
      paperV: String,
      paperE: String,
      paperDavg: Int,
  ) {
    def m: Int = (n * avgDeg).toInt
    def build(seed: Long = 42L): LocalGraph = kind match {
      case Kind.Uniform  => uniform(n, m, seed ^ name.hashCode)
      case Kind.PowerLaw => powerLaw(n, m, alpha = 0.9, seed ^ name.hashCode)
    }
  }

  /** The 15 datasets of Table 2, at mini scale, same density ordering.
    * Dense economic/biological graphs are uniform (their originals are
    * near-homogeneous dense matrices/interactomes); web/social graphs are
    * power-law.
    */
  val datasets: Seq[DatasetSpec] = Seq(
    DatasetSpec("ps", "econ-psmigr3",       "Economic",      800,  40.0, Kind.Uniform,  "3.1K", "540K", 172),
    DatasetSpec("ye", "bio-grid-yeast",     "Biological",   1500,  22.0, Kind.Uniform,  "6K",   "314K", 52),
    DatasetSpec("wn", "bio-WormNet-v3",     "Biological",   4000,  18.0, Kind.PowerLaw, "16K",  "763K", 47),
    DatasetSpec("uk", "web-uk-2005",        "Web",          8000,  26.0, Kind.PowerLaw, "130K", "12M",  91),
    DatasetSpec("sf", "web-Stanford",       "Web",         10000,  12.0, Kind.PowerLaw, "282K", "13M",  46),
    DatasetSpec("bk", "web-baidu-baike",    "Web",         12000,   5.0, Kind.PowerLaw, "416K", "3.3M", 8),
    DatasetSpec("tw", "twitter-social",     "Miscellaneous",15000,   2.0, Kind.PowerLaw, "465K", "835K", 2),
    DatasetSpec("bs", "web-BerkStan",       "Web",         20000,   6.0, Kind.PowerLaw, "685K", "7.6M", 11),
    DatasetSpec("gg", "web-Google",         "Web",         25000,   4.0, Kind.PowerLaw, "876K", "5.1M", 6),
    DatasetSpec("hm", "bn-human-Jung2015",  "Biological",   6000,  35.0, Kind.Uniform,  "976K", "146M", 150),
    DatasetSpec("wt", "wikiTalk",           "Miscellaneous",30000,   2.0, Kind.PowerLaw, "2.4M", "5M",   2),
    DatasetSpec("lj", "soc-LiveJournal1",   "Social",      40000,   7.0, Kind.PowerLaw, "4.8M", "68M",  14),
    DatasetSpec("dl", "dbpedia-link",       "Miscellaneous",50000,   4.0, Kind.PowerLaw, "18M",  "137M", 7),
    DatasetSpec("fr", "soc-friendster",     "Social",      50000,  10.0, Kind.PowerLaw, "66M",  "1.8B", 28),
    DatasetSpec("hg", "web-cc12-hostgraph", "Web",         60000,   8.0, Kind.PowerLaw, "89M",  "2B",   23),
  )

  def dataset(name: String): DatasetSpec =
    datasets.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))

  /** Random query pairs (s,t) such that s reaches t within k hops, s ≠ t —
    * the paper's query generation rule (§6.1).
    */
  def queries(g: LocalGraph, k: Int, count: Int, seed: Long): Seq[(Int, Int)] = {
    val rnd = new Random(seed)
    val out = mutable.ArrayBuffer[(Int, Int)]()
    var attempts = 0
    val maxAttempts = count * 200
    while (out.length < count && attempts < maxAttempts) {
      attempts += 1
      val s    = rnd.nextInt(g.n)
      val dist = Bfs.bounded(g.outOff, g.outDst, s, k)
      val reach = (0 until g.n).filter(v => v != s && dist(v) <= k)
      if (reach.nonEmpty) out += ((s, reach(rnd.nextInt(reach.length))))
    }
    require(out.length == count, s"could not generate $count k-hop-reachable queries")
    out.toSeq
  }
}
