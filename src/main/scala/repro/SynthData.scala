package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic DataFrame inputs. Generators are deterministic in their seed,
  * so the DuckDB oracle sees identical input.
  */
object SynthData {

  /** Random directed edge list (src, dst) over n vertices, for DataFrame-level
    * graph inputs (e.g. [[repro.distributed.DistEve]]). Self-loops are
    * filtered and duplicates dropped so the result matches what
    * [[repro.data.GraphGen.uniform]] produces structurally.
    */
  def graphEdges(spark: SparkSession, n: Long, m: Long, seed: Long = 7): DataFrame = {
    import spark.implicits._
    spark.range((m * 1.2).toLong).select(
      (rand(seed)     * n).cast(LongType) as "src",
      (rand(seed + 1) * n).cast(LongType) as "dst",
    ).where($"src" =!= $"dst").dropDuplicates("src", "dst").limit(m.toInt)
  }
}
