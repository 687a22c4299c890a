package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._

import scala.collection.concurrent.TrieMap

/** Executor-local cache of per-partition Ball-trees and assignment state.
  *
  * The tree over a partition's spatial vectors is built once (the paper
  * builds the spatial-vector index once per task) and reused across the
  * driver-coordinated iterations; the assignment markers persist so the
  * inter-bound / batch pruning carries over between iterations exactly as
  * in the serial algorithm. Keys are (runId, partitionId); entries are
  * dropped explicitly when a run finishes. Works wherever executor JVMs
  * are stable across stages (local mode and standalone executors).
  */
object PartitionIndexCache {
  final class Entry(
      val ids: Array[Long],
      val state: TreeAssignmentState,
      val counter: DistanceCounter,
  )

  private val cache = TrieMap.empty[(String, Int), Entry]

  def getOrBuild(runId: String, partition: Int, build: () => Entry): Entry =
    cache.getOrElseUpdate((runId, partition), build())

  def get(runId: String, partition: Int): Option[Entry] = cache.get((runId, partition))

  def drop(runId: String): Unit =
    cache.keys.filter(_._1 == runId).foreach(cache.remove)

  def size: Int = cache.size
}

/** Dask-means lifted onto Spark per the repro plan: the memory-tunable
  * index and batch assignment run as a per-partition `mapPartitions`
  * operator, feeding MLlib-KMeans-style (Lloyd) iterations — per iteration
  * the driver broadcasts the centroids and inter bounds, each partition
  * runs [[repro.core.DaskAssign.step]] over its cached tree, and the
  * emitted (cluster, count, sum) partials are reduced into the next
  * centroids.
  */
object DistributedDaskMeans {

  final case class FitResult(
      centroids: Array[Array[Double]],
      iterations: Int,
      runId: String,
      batchPrunedVectors: Long,
  )

  /** Deterministic initial centroids: the k rows with the smallest hashed
    * ids (a seeded pseudo-random sample).
    */
  def initialCentroids(df: DataFrame, k: Int, seed: Long): Array[Array[Double]] =
    df.orderBy(xxhash64(col("id"), lit(seed)))
      .limit(k)
      .select("features")
      .collect()
      .map(_.getSeq[Double](0).toArray)

  /** Fit k-means over `df` (columns `id`, `features`). The frame should be
    * persisted by the caller if it is expensive to recompute; partitions
    * must be deterministic across iterations (repartition(id) enforces it).
    */
  def fit(
      df: DataFrame,
      k: Int,
      maxIters: Int,
      leafCapacity: Int = 30,
      numPartitions: Int = 0,
      seed: Long = 42L,
      init: Option[Array[Array[Double]]] = None,
  ): FitResult = {
    val spark = df.sparkSession
    val parts = if (numPartitions > 0) numPartitions else spark.sparkContext.defaultParallelism
    val pts = df.select("id", "features").repartition(parts, col("id")).persist()
    val runId = java.util.UUID.randomUUID().toString
    try {
      pts.count() // materialise so the partition layout is frozen
      var centroids = init.map(_.map(_.clone())).getOrElse(initialCentroids(pts, k, seed))
      require(centroids.length == k, s"need k=$k distinct initial centroids, got ${centroids.length}")
      val d = centroids(0).length
      var cb: Array[Double] = new Array[Double](k)
      val drifts = new Array[Double](k)
      val driverCounter = new DistanceCounter
      var it = 0
      var converged = false
      var pruned = 0L

      while (it < maxIters && !converged) {
        // Driver-side inter bounds over a centroid index (k is small).
        val index = if (k > 1) new CentroidIndex(centroids, leafCapacity, driverCounter) else null
        cb = DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, driverCounter)
        val bc = spark.sparkContext.broadcast((centroids, cb))

        // Per-partition batch assignment over the cached trees; each
        // non-empty partition emits one partial: its pruned count and the
        // (cluster, count, sum) of its non-empty clusters.
        import spark.implicits._
        val partials: Array[(Long, Array[Int], Array[Long], Array[Array[Double]])] = pts
          .mapPartitions { rows =>
            val pid = TaskContext.getPartitionId()
            val entry = PartitionIndexCache.getOrBuild(runId, pid, () => {
              val buf = rows.map(r => (r.getLong(0), r.getSeq[Double](1).toArray)).toArray
              val data = buf.map(_._2)
              val counter = new DistanceCounter
              if (data.isEmpty) new PartitionIndexCache.Entry(Array.empty, null, counter)
              else new PartitionIndexCache.Entry(
                buf.map(_._1),
                new TreeAssignmentState(data, BallTree.build(data, leafCapacity), k),
                counter)
            })
            if (entry.state == null) Iterator.empty
            else {
              val (cs, cbLocal) = bc.value
              val localIndex = if (k > 1) new CentroidIndex(cs, leafCapacity, entry.counter) else null
              val prunedHere = DaskAssign.step(entry.state, cs, cbLocal, localIndex, entry.counter)
              val st = entry.state
              val ids = (0 until k).filter(j => st.counts(j) > 0).toArray
              Iterator.single((prunedHere, ids, ids.map(st.counts), ids.map(st.sums)))
            }
          }
          .collect()

        // Reduce partials into new centroids.
        val sums = Array.fill(k)(new Array[Double](d))
        val counts = new Array[Long](k)
        partials.foreach { case (pr, ids, cs, ss) =>
          pruned += pr
          var x = 0
          while (x < ids.length) { counts(ids(x)) += cs(x); Vec.addInto(sums(ids(x)), ss(x)); x += 1 }
        }
        centroids = KMeans.fromSums(sums, counts, centroids, drifts)
        it += 1
        converged = KMeans.maxDrift(drifts) <= KMeans.Eps
        bc.unpersist()
      }
      FitResult(centroids, it, runId, pruned)
    } catch {
      // A failed run never hands its runId to the caller, so drop its
      // cached partition state here.
      case e: Throwable => PartitionIndexCache.drop(runId); throw e
    } finally pts.unpersist()
  }

  /** Final per-point assignments of a finished run as a DataFrame
    * `(id, cluster)`; requires the run's cached partition state (call
    * before [[cleanup]]). Falls back to a broadcast nearest-centroid pass
    * for partitions whose cache entry is gone.
    */
  def assignments(df: DataFrame, fitted: FitResult, leafCapacity: Int = 30, numPartitions: Int = 0): DataFrame = {
    val spark = df.sparkSession
    val parts = if (numPartitions > 0) numPartitions else spark.sparkContext.defaultParallelism
    val bc = spark.sparkContext.broadcast(fitted.centroids)
    import spark.implicits._
    df.select("id", "features")
      .repartition(parts, col("id"))
      .mapPartitions { rows =>
        val counter = new DistanceCounter; val nn = new KMeans.Nearest
        def nearest(r: Row): Int = KMeans.nearest(r.getSeq[Double](1).toArray, bc.value, counter, nn).i1
        PartitionIndexCache.get(fitted.runId, TaskContext.getPartitionId()) match {
          case Some(entry) if entry.state != null =>
            val a = entry.state.materialize()
            val byId = new java.util.HashMap[Long, Int](entry.ids.length * 2)
            entry.ids.indices.foreach(i => byId.put(entry.ids(i), i))
            rows.map { r =>
              val id = r.getLong(0)
              val i = byId.getOrDefault(id, -1)
              (id, if (i >= 0) a(i) else nearest(r))
            }
          case _ => rows.map(r => (r.getLong(0), nearest(r)))
        }
      }
      .toDF("id", "cluster")
  }

  def cleanup(fitted: FitResult): Unit = PartitionIndexCache.drop(fitted.runId)

  /** Sum of squared errors of a fitted model over the frame. */
  def sse(df: DataFrame, centroids: Array[Array[Double]]): Double = {
    val spark = df.sparkSession
    val bc = spark.sparkContext.broadcast(centroids)
    import spark.implicits._
    df.select("features")
      .mapPartitions { rows =>
        val counter = new DistanceCounter; val nn = new KMeans.Nearest
        rows.map(r => KMeans.nearest(r.getSeq[Double](0).toArray, bc.value, counter, nn).d1Sq)
      }
      .reduce(_ + _)
  }
}
