package repro.distributed

import org.apache.spark.graphx._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** EVE as a distributed dataflow over GraphX vertex/edge RDDs.
  *
  * Phase mapping (mirrors [[repro.core.Eve]]):
  *  1. bounded BFS distances from s and to t — two Pregel runs;
  *  2. essential-vertex propagation — k-1 rounds of `aggregateMessages`
  *     (forward over edges, backward against them), with the forward-looking
  *     pruning predicate folded into the send side;
  *  3. edge labeling — one pass over the triplets carrying (EV_f, EV_b);
  *  4. verification — the upper-bound graph is small (bounded by the query's
  *     k-hop neighborhood), so it is broadcast and the undetermined edges are
  *     sharded across executors, each shard verified with the sequential
  *     [[repro.core.Verifier]].
  *
  * Entry/exit are DataFrames of (src, dst) Long columns. The VertexIds are
  * compacted to dense Int ids once at entry and mapped back at exit, so the
  * phases share the sequential EVE's [[repro.core.VSet]] sets,
  * [[repro.core.EdgeLabeling.labelEdge]] and [[repro.core.Verifier]].
  */
object DistEve {

  private val Inf = Bfs.Inf

  /** k-bounded BFS distance from `root` via Pregel. `reverse` walks edges
    * backwards (distance *to* root).
    */
  private[distributed] def pregelDist(
      graph: Graph[Int, _], root: VertexId, k: Int, reverse: Boolean): VertexRDD[Int] = {
    val init = graph.mapVertices((id, _) => if (id == root) 0 else Inf)
    val dir  = if (reverse) EdgeDirection.In else EdgeDirection.Out
    val res = Pregel(init, Inf, maxIterations = k, activeDirection = dir)(
      vprog = (_, attr, msg) => math.min(attr, msg),
      sendMsg = triplet =>
        if (!reverse) {
          if (triplet.srcAttr != Inf && triplet.srcAttr + 1 < triplet.dstAttr)
            Iterator((triplet.dstId, triplet.srcAttr + 1))
          else Iterator.empty
        } else {
          if (triplet.dstAttr != Inf && triplet.dstAttr + 1 < triplet.srcAttr)
            Iterator((triplet.srcId, triplet.dstAttr + 1))
          else Iterator.empty
        },
      mergeMsg = math.min,
    )
    res.vertices
  }

  /** Vertex state during propagation: distance to the opposite endpoint (for
    * pruning), the EV layers accumulated so far, and the delta flag.
    */
  private case class PropState(
      distOther: Int,
      layers: Array[Array[Int]],
      changed: Boolean,
  ) extends Serializable

  /** Distributed analogue of [[repro.core.EssentialVertices.propagate]]:
    * layered propagation with the inherited-seed recurrence (DESIGN.md §6).
    * Layer arrays are per-vertex, length k (indexes 0..k-1), null = absent.
    */
  private[distributed] def propagate(
      base: Graph[Int, Byte], // vertex attr = distance to the *other* endpoint
      source: Int,
      excluded: Int,
      k: Int,
      forward: Boolean,
  ): VertexRDD[Array[Array[Int]]] = {
    var g: Graph[PropState, Byte] = base.mapVertices { (id, dOther) =>
      val layers = new Array[Array[Int]](math.max(k, 1))
      if (id == source) layers(0) = Array(source)
      PropState(dOther, layers, changed = id == source)
    }.cache()

    var l = 1
    while (l <= k - 1) {
      val lNow = l
      val msgs: VertexRDD[Array[Int]] = g.aggregateMessages[Array[Int]](
        ctx => {
          val (sAttr, dId, dAttr) =
            if (forward) (ctx.srcAttr, ctx.dstId, ctx.dstAttr)
            else (ctx.dstAttr, ctx.srcId, ctx.srcAttr)
          if (sAttr.changed && sAttr.layers(lNow - 1) != null &&
              dId != source && dId != excluded && dAttr.distOther <= k - lNow) {
            val msg = VSet.add(sAttr.layers(lNow - 1), dId.toInt)
            if (forward) ctx.sendToDst(msg) else ctx.sendToSrc(msg)
          }
        },
        VSet.intersect,
      )
      val prev = g
      g = g.outerJoinVertices(msgs) { (_, attr, msgOpt) =>
        val inherited = attr.layers(lNow - 1)
        msgOpt match {
          case None =>
            PropState(attr.distOther, attr.layers.updated(lNow, inherited), changed = false)
          case Some(m) =>
            val merged = if (inherited == null) m else VSet.intersect(inherited, m)
            val changed = inherited == null || !java.util.Arrays.equals(merged, inherited)
            PropState(attr.distOther, attr.layers.updated(lNow, merged), changed)
        }
      }.cache()
      g.vertices.count() // materialize before unpersisting the parent
      prev.unpersist(blocking = false)
      l += 1
    }
    g.vertices.mapValues(_.layers)
  }

  /** Compute SPG_k(s,t) and return its edges as a DataFrame (src, dst). */
  def spg(spark: SparkSession, edgesDf: DataFrame, s: Long, t: Long, k: Int): DataFrame = {
    require(s != t, "query requires s != t")
    require(k >= 1, "hop constraint must be >= 1")
    import spark.implicits._
    def empty: DataFrame = Seq.empty[(Long, Long)].toDF("src", "dst")
    val sc = spark.sparkContext
    val rawEdges: RDD[(VertexId, VertexId)] =
      edgesDf.select("src", "dst").rdd
        .map(r => (r.getLong(0), r.getLong(1)))
        .filter { case (u, v) => u != v }
        .distinct()

    // Dense id i stands for VertexId ids(i).
    val ids = rawEdges.flatMap { case (u, v) => Iterator(u, v) }.distinct().collect().sorted
    require(ids.length < Int.MaxValue, s"${ids.length} vertices do not fit Int ids")
    val sC = java.util.Arrays.binarySearch(ids, s)
    val tC = java.util.Arrays.binarySearch(ids, t)
    if (sC < 0 || tC < 0) return empty // an endpoint without edges
    val bcIds = sc.broadcast(ids)
    val edgeRdd: RDD[(VertexId, VertexId)] = rawEdges.mapPartitions { it =>
      val ids = bcIds.value
      it.map { case (u, v) =>
        (java.util.Arrays.binarySearch(ids, u).toLong, java.util.Arrays.binarySearch(ids, v).toLong)
      }
    }
    val graph = Graph.fromEdgeTuples(edgeRdd, defaultValue = 0).cache()

    // Phase 1a: distances.
    val dF = pregelDist(graph, sC, k, reverse = false)
    val dB = pregelDist(graph, tC, k, reverse = true)
    val reachable = dF.filter { case (id, d) => id == tC && d <= k }.count() > 0
    if (!reachable) return empty

    // Phase 1b: essential-vertex propagation (forward needs Δ(·,t), backward Δ(s,·)).
    val gForDists: Graph[(Int, Int), Byte] = graph
      .outerJoinVertices(dF)((_, _, d) => d.getOrElse(Inf))
      .outerJoinVertices(dB)((_, df, db) => (df, db.getOrElse(Inf)))
      .mapEdges(_ => 0.toByte)
    val gPruneF = gForDists.mapVertices((_, d) => d._2) // attr = Δ(·,t)
    val gPruneB = gForDists.mapVertices((_, d) => d._1) // attr = Δ(s,·)
    val evF = propagate(gPruneF, sC, tC, k, forward = true)
    val evB = propagate(gPruneB, tC, sC, k, forward = false)

    // Phase 2: labeling over triplets carrying ((dF,dB), evF, evB).
    val withEv: Graph[((Int, Int), Array[Array[Int]], Array[Array[Int]]), Byte] = gForDists
      .outerJoinVertices(evF)((_, d, e) => (d, e.orNull))
      .outerJoinVertices(evB)((_, de, e) => (de._1, de._2, e.orNull))
    val labeled: RDD[(Long, Byte)] = withEv.triplets.flatMap { tr =>
      if (Bfs.inWindow(tr.srcAttr._1._1, tr.dstAttr._1._2, k)) {
        val u = tr.srcId.toInt; val v = tr.dstId.toInt
        val (fu, bv) = (tr.srcAttr._2, tr.dstAttr._3)
        val lab = EdgeLabeling.labelEdge(k, sC, tC, u, v, fu(_), bv(_))
        if (lab != EdgeLabel.Failing) Iterator((LocalGraph.enc(u, v), lab)) else Iterator.empty
      } else Iterator.empty
    }
    // Triplets arrive in partition order; SPGu edge ids need them ascending.
    val upper = labeled.collect().sortBy(_._1)
    val ub    = new UpperBoundGraph(ids.length, k, sC, tC, upper.map(_._1), upper.map(_._2))

    // Phase 3: verification. The upper-bound graph is query-local and small;
    // broadcast it and verify undetermined edge ids in parallel shards. Each
    // shard returns its SPG membership bitset (definite edges included). The
    // shards of one JVM share the broadcast graph's adjacency, built once.
    val result: Seq[Long] =
      if (k <= 4) ub.edges.toSeq
      else {
        val undetermined = ub.labels.indices.filter(ub.labels(_) == EdgeLabel.Undetermined)
        val bcUb = sc.broadcast(ub)
        val bcBd = sc.broadcast(Boundary.compute(ub))
        val shards = sc
          .parallelize(undetermined, math.max(1, math.min(undetermined.length, sc.defaultParallelism)))
          .mapPartitions { it =>
            Iterator.single(new Verifier(bcUb.value, bcBd.value, ordering = true, Deadline.None).confirm(it.toArray))
          }
          .collect()
        ub.edges.indices.filter(e => shards.exists(_(e))).map(ub.edges(_))
      }

    // Dense ids are ranks of the VertexIds, so the output stays sorted.
    result
      .map(e => (ids(LocalGraph.src(e)), ids(LocalGraph.dst(e))))
      .toDF("src", "dst")
  }
}
