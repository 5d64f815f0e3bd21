//! The structural model: mesh + materials + loads + constraints → solution.

use std::collections::BTreeMap;

use cafemio_mesh::{ElementId, NodeId, TriMesh};

use crate::element::element_stiffness;
use crate::skyline::{dof_profile, SkylineMatrix};
use crate::sparse::{CgOptions, CgSystem, CsrMatrix};
use crate::thermal_stress::ThermalLoad;
use crate::{BandMatrix, DenseMatrix, FemError, Material};

/// Which linear solver a [`FemModel`] solve routes through.
///
/// The three direct backends are the 1970 technology class (storage and
/// flops grow with the bandwidth); [`SparseCg`](SolverBackend::SparseCg)
/// is the large-mesh path — CSR storage proportional to the nonzeros,
/// solved by IC(0)-preconditioned conjugate gradients with a counted
/// Jacobi fall-back. See
/// `docs/SOLVERS.md` for the selection guide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverBackend {
    /// Banded Cholesky — the paper-era default.
    #[default]
    Band,
    /// Skyline (profile) LDLᵀ.
    Skyline,
    /// Dense reference factorization.
    Dense,
    /// CSR assembly + IC(0)-preconditioned conjugate gradients, with a
    /// counted Jacobi fall-back when an incomplete pivot breaks down.
    SparseCg,
}

impl SolverBackend {
    /// Every backend, in documentation order.
    pub const ALL: [SolverBackend; 4] = [
        SolverBackend::Band,
        SolverBackend::Skyline,
        SolverBackend::Dense,
        SolverBackend::SparseCg,
    ];
}

impl std::fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolverBackend::Band => "band",
            SolverBackend::Skyline => "skyline",
            SolverBackend::Dense => "dense",
            SolverBackend::SparseCg => "sparse-cg",
        })
    }
}

/// The analysis idealization, matching the paper's Reference 1 program
/// ("IDLZ and OSPL work equally as well with any plane stress or plane
/// strain analysis program", and the hull examples are axisymmetric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalysisKind {
    /// Plane stress with the given out-of-plane thickness.
    PlaneStress {
        /// Member thickness.
        thickness: f64,
    },
    /// Plane strain (unit thickness).
    PlaneStrain,
    /// Axisymmetric solid of revolution; `x` is the radius, `y` the axis.
    Axisymmetric,
}

/// A structural finite-element model over a [`TriMesh`].
///
/// Degrees of freedom are numbered `2·node` (x/r displacement) and
/// `2·node + 1` (y/z displacement), so the matrix semi-bandwidth is
/// `2·mesh.bandwidth() + 1` — directly tied to the node numbering IDLZ
/// optimizes.
#[derive(Debug, Clone)]
pub struct FemModel {
    mesh: TriMesh,
    kind: AnalysisKind,
    default_material: Material,
    element_materials: BTreeMap<usize, Material>,
    forces: Vec<f64>,
    constraints: BTreeMap<usize, f64>,
    thermal: Option<ThermalLoad>,
}

impl FemModel {
    /// Creates a model with one default material everywhere.
    pub fn new(mesh: TriMesh, kind: AnalysisKind, material: Material) -> FemModel {
        let ndof = mesh.node_count() * 2;
        FemModel {
            mesh,
            kind,
            default_material: material,
            element_materials: BTreeMap::new(),
            forces: vec![0.0; ndof],
            constraints: BTreeMap::new(),
            thermal: None,
        }
    }

    /// Applies a thermal load: nodal temperatures against a stress-free
    /// `reference`, expanding with coefficient `expansion`. The
    /// equivalent nodal forces enter the right-hand side and stress
    /// recovery subtracts the thermal strain, so free expansion is
    /// stress-free while constrained expansion develops thermal stress.
    pub fn set_thermal_load(&mut self, temperatures: Vec<f64>, expansion: f64, reference: f64) {
        self.thermal = Some(ThermalLoad::new(temperatures, expansion, reference));
    }

    /// The active thermal load, if any.
    pub fn thermal_load(&self) -> Option<&ThermalLoad> {
        self.thermal.as_ref()
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &TriMesh {
        &self.mesh
    }

    /// The analysis kind.
    pub fn kind(&self) -> AnalysisKind {
        self.kind
    }

    /// Overrides the material of one element (the paper's joints bond
    /// glass to metal rings — multi-material models are the norm).
    pub fn set_element_material(&mut self, element: ElementId, material: Material) {
        self.element_materials.insert(element.index(), material);
    }

    /// The material of an element.
    pub fn element_material(&self, element: ElementId) -> Material {
        self.element_materials
            .get(&element.index())
            .copied()
            .unwrap_or(self.default_material)
    }

    /// Adds a concentrated nodal load (force, or force per radian ring
    /// load in the axisymmetric case).
    ///
    /// # Panics
    ///
    /// Panics when the node does not exist.
    pub fn add_force(&mut self, node: NodeId, fx: f64, fy: f64) {
        self.forces[2 * node.index()] += fx;
        self.forces[2 * node.index() + 1] += fy;
    }

    /// Applies a uniform pressure `p` to the edge from `a` to `b`,
    /// directed along the *left-hand normal* of the walk `a → b`. Walking
    /// the boundary with the material on the left therefore pushes *into*
    /// the material for positive `p` — the compressive sense of the
    /// submergence loads on the paper's pressure hulls. Walk the other way
    /// (or negate `p`) for suction.
    ///
    /// Plane analyses spread `p·L·t` half-and-half; the axisymmetric case
    /// uses the consistent surface-of-revolution allocation
    /// `2π·p·L·(2rᵢ + rⱼ)/6` per node.
    ///
    /// # Errors
    ///
    /// [`FemError::DegenerateEdge`] when the edge has zero length — a
    /// symptom of coincident nodes, which deck-driven geometry can
    /// produce.
    ///
    /// # Panics
    ///
    /// Panics when a node does not exist.
    pub fn add_edge_pressure(&mut self, a: NodeId, b: NodeId, p: f64) -> Result<(), FemError> {
        let pa = self.mesh.node(a).position;
        let pb = self.mesh.node(b).position;
        let edge = pb - pa;
        let length = edge.norm();
        let normal = edge.perp().normalized().ok_or(FemError::DegenerateEdge {
            a: a.index(),
            b: b.index(),
        })?;
        match self.kind {
            AnalysisKind::PlaneStress { thickness } => {
                let f = p * length * thickness / 2.0;
                self.add_force(a, f * normal.x, f * normal.y);
                self.add_force(b, f * normal.x, f * normal.y);
            }
            AnalysisKind::PlaneStrain => {
                let f = p * length / 2.0;
                self.add_force(a, f * normal.x, f * normal.y);
                self.add_force(b, f * normal.x, f * normal.y);
            }
            AnalysisKind::Axisymmetric => {
                let (ra, rb) = (pa.x, pb.x);
                let tau = std::f64::consts::TAU;
                let fa = tau * p * length * (2.0 * ra + rb) / 6.0;
                let fb = tau * p * length * (ra + 2.0 * rb) / 6.0;
                self.add_force(a, fa * normal.x, fa * normal.y);
                self.add_force(b, fb * normal.x, fb * normal.y);
            }
        }
        Ok(())
    }

    /// Returns a copy of the model with every applied load (nodal forces,
    /// integrated pressures, and the thermal load's temperature rises)
    /// scaled by `factor` — the "load increment" of the Reference-1 era
    /// analyses whose plots OSPL labels "INCREMENT NUMBER n".
    pub fn with_load_factor(&self, factor: f64) -> FemModel {
        let mut scaled = self.clone();
        for f in &mut scaled.forces {
            *f *= factor;
        }
        if let Some(thermal) = &mut scaled.thermal {
            for t in &mut thermal.temperatures {
                *t = thermal.reference + factor * (*t - thermal.reference);
            }
        }
        scaled
    }

    /// Prescribes the x/r displacement of a node (usually zero).
    pub fn prescribe_x(&mut self, node: NodeId, value: f64) {
        self.constraints.insert(2 * node.index(), value);
    }

    /// Prescribes the y/z displacement of a node (usually zero).
    pub fn prescribe_y(&mut self, node: NodeId, value: f64) {
        self.constraints.insert(2 * node.index() + 1, value);
    }

    /// Fixes the x/r displacement at zero.
    pub fn fix_x(&mut self, node: NodeId) {
        self.prescribe_x(node, 0.0);
    }

    /// Fixes the y/z displacement at zero.
    pub fn fix_y(&mut self, node: NodeId) {
        self.prescribe_y(node, 0.0);
    }

    /// Fixes both displacements at zero.
    pub fn fix_both(&mut self, node: NodeId) {
        self.fix_x(node);
        self.fix_y(node);
    }

    /// Matrix semi-bandwidth in degrees of freedom.
    pub fn dof_bandwidth(&self) -> usize {
        2 * self.mesh.bandwidth() + 1
    }

    /// Assembles and solves with the banded Cholesky solver.
    ///
    /// # Errors
    ///
    /// [`FemError::EmptyModel`] without elements,
    /// [`FemError::Unconstrained`] when no displacement is fixed at all,
    /// material errors from the constitutive matrices, and
    /// [`FemError::SingularMatrix`] for under-constrained models.
    pub fn solve(&self) -> Result<Solution, FemError> {
        let _span = cafemio_instrument::span("fem.solve");
        cafemio_instrument::counter("fem.dofs", (self.mesh.node_count() * 2) as u64);
        cafemio_instrument::counter("fem.dof_bandwidth", self.dof_bandwidth() as u64);
        let (matrix, rhs) = {
            let _s = cafemio_instrument::span("fem.assemble");
            self.assemble_banded()?
        };
        let _s = cafemio_instrument::span("fem.factor_solve");
        let displacements = matrix.solve(&rhs)?;
        Ok(Solution {
            kind: self.kind,
            displacements,
        })
    }

    /// Assembles and solves with the dense reference solver (used to
    /// verify the banded path and to benchmark the bandwidth ablation).
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_dense(&self) -> Result<Solution, FemError> {
        let (matrix, rhs) = self.assemble_dense()?;
        let displacements = matrix.solve(&rhs)?;
        Ok(Solution {
            kind: self.kind,
            displacements,
        })
    }

    /// Assembles and solves with the skyline (profile) LDLᵀ solver — the
    /// third storage scheme of the era, whose cost follows the *profile*
    /// rather than the worst-case bandwidth.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_skyline(&self) -> Result<Solution, FemError> {
        let _span = cafemio_instrument::span("fem.solve_skyline");
        let (matrix, rhs) = {
            let _s = cafemio_instrument::span("fem.assemble");
            self.assemble_skyline()?
        };
        let _s = cafemio_instrument::span("fem.factor_solve");
        let displacements = matrix.solve(&rhs)?;
        Ok(Solution {
            kind: self.kind,
            displacements,
        })
    }

    /// Assembles and solves with the requested backend. `Band` takes
    /// exactly the same path as [`solve`](Self::solve), so the default
    /// backend is behavior-identical to the historical API.
    ///
    /// # Errors
    ///
    /// As for the matching `solve_*` method.
    pub fn solve_with(&self, backend: SolverBackend) -> Result<Solution, FemError> {
        match backend {
            SolverBackend::Band => self.solve(),
            SolverBackend::Skyline => self.solve_skyline(),
            SolverBackend::Dense => self.solve_dense(),
            SolverBackend::SparseCg => self.solve_sparse(),
        }
    }

    /// Assembles and solves with the sparse CSR / conjugate-gradient
    /// backend under the default [`CgOptions`] — the large-mesh path,
    /// whose storage follows the nonzero count instead of the bandwidth.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve), plus
    /// [`FemError::CgNoConvergence`] when the iteration budget runs out.
    pub fn solve_sparse(&self) -> Result<Solution, FemError> {
        self.solve_sparse_with(&CgOptions::new())
    }

    /// [`solve_sparse`](Self::solve_sparse) with explicit iteration
    /// options. The preconditioner is the complete skyline LDLᵀ when the
    /// matrix's profile is cheap and IC(0) otherwise (see
    /// [`solve_cg`](crate::solve_cg)). Times its setup (`fem.cg.factor`)
    /// apart from the iteration (`fem.cg.iterate`) and publishes the
    /// `fem.cg.nonzeros` / `fem.cg.complete_factors` /
    /// `fem.cg.ic0_fallbacks` / `fem.cg.iterations` /
    /// `fem.cg.residual_femto` counters.
    ///
    /// # Errors
    ///
    /// As for [`solve_sparse`](Self::solve_sparse).
    pub fn solve_sparse_with(&self, options: &CgOptions) -> Result<Solution, FemError> {
        let _span = cafemio_instrument::span("fem.solve_sparse");
        cafemio_instrument::counter("fem.dofs", (self.mesh.node_count() * 2) as u64);
        let (matrix, rhs) = {
            let _s = cafemio_instrument::span("fem.assemble");
            self.assemble_sparse()?
        };
        cafemio_instrument::counter("fem.cg.nonzeros", matrix.nonzeros() as u64);
        let system = {
            let _s = cafemio_instrument::span("fem.cg.factor");
            CgSystem::factor(&matrix)?
        };
        cafemio_instrument::counter("fem.cg.complete_factors", system.complete_factors() as u64);
        cafemio_instrument::counter("fem.cg.ic0_fallbacks", system.ic0_fallbacks() as u64);
        let _s = cafemio_instrument::span("fem.cg.iterate");
        let (displacements, stats) = system.solve(&rhs, options)?;
        cafemio_instrument::counter("fem.cg.iterations", stats.iterations as u64);
        cafemio_instrument::counter("fem.cg.residual_femto", (stats.residual * 1e15) as u64);
        Ok(Solution {
            kind: self.kind,
            displacements,
        })
    }

    /// Assembles the sparse CSR system (stiffness + constrained
    /// right-hand side). The sparsity pattern is the mesh node adjacency
    /// expanded to 2×2 dof blocks — a pure function of the numbering —
    /// and the scatter-add runs serially in element order, so assembly
    /// is bit-for-bit deterministic like the other storage schemes.
    ///
    /// # Errors
    ///
    /// As for [`assemble_banded`](Self::assemble_banded).
    pub fn assemble_sparse(&self) -> Result<(CsrMatrix, Vec<f64>), FemError> {
        if self.mesh.element_count() == 0 {
            return Err(FemError::EmptyModel);
        }
        if self.constraints.is_empty() {
            return Err(FemError::Unconstrained);
        }
        let mut matrix = CsrMatrix::with_pattern(&self.sparse_pattern());
        let mut rhs = self.external_forces()?;
        self.assemble_into(|i, j, v| matrix.add(i, j, v))?;
        for (&dof, &value) in &self.constraints {
            let column = matrix.constrain(dof);
            for (other, coupling) in column {
                if !self.constraints.contains_key(&other) {
                    rhs[other] -= coupling * value;
                }
            }
        }
        for (&dof, &value) in &self.constraints {
            rhs[dof] = value;
        }
        Ok((matrix, rhs))
    }

    /// The dof-level sparsity pattern: for each node, itself plus its
    /// mesh neighbors, each contributing a 2×2 dof block. Column lists
    /// come out sorted because the adjacency lists are sorted and the
    /// node's own block is spliced into place.
    fn sparse_pattern(&self) -> Vec<Vec<usize>> {
        let adjacency = self.mesh.node_adjacency();
        let mut pattern = Vec::with_capacity(self.mesh.node_count() * 2);
        for (node, neighbors) in adjacency.iter().enumerate() {
            let mut row = Vec::with_capacity(2 * (neighbors.len() + 1));
            let mut self_placed = false;
            for n in neighbors {
                let j = n.index();
                if !self_placed && j > node {
                    row.push(2 * node);
                    row.push(2 * node + 1);
                    self_placed = true;
                }
                row.push(2 * j);
                row.push(2 * j + 1);
            }
            if !self_placed {
                row.push(2 * node);
                row.push(2 * node + 1);
            }
            pattern.push(row.clone());
            pattern.push(row);
        }
        pattern
    }

    /// Assembles the skyline system (stiffness + constrained right-hand
    /// side).
    pub fn assemble_skyline(&self) -> Result<(SkylineMatrix, Vec<f64>), FemError> {
        if self.mesh.element_count() == 0 {
            return Err(FemError::EmptyModel);
        }
        if self.constraints.is_empty() {
            return Err(FemError::Unconstrained);
        }
        let mut matrix = SkylineMatrix::new(&dof_profile(&self.mesh));
        let mut rhs = self.external_forces()?;
        self.assemble_into(|i, j, v| {
            if j >= i {
                matrix.add(i, j, v);
            }
        })?;
        for (&dof, &value) in &self.constraints {
            let column = matrix.constrain(dof);
            for (other, coupling) in column {
                if !self.constraints.contains_key(&other) {
                    rhs[other] -= coupling * value;
                }
            }
        }
        for (&dof, &value) in &self.constraints {
            rhs[dof] = value;
        }
        Ok((matrix, rhs))
    }

    fn d_matrix(&self, material: &Material) -> Result<DenseMatrix, FemError> {
        match self.kind {
            AnalysisKind::PlaneStress { .. } => material.d_plane_stress(),
            AnalysisKind::PlaneStrain => material.d_plane_strain(),
            AnalysisKind::Axisymmetric => material.d_axisymmetric(),
        }
    }

    /// Assembles the banded system (stiffness + right-hand side with
    /// constraints applied).
    pub fn assemble_banded(&self) -> Result<(BandMatrix, Vec<f64>), FemError> {
        if self.mesh.element_count() == 0 {
            return Err(FemError::EmptyModel);
        }
        if self.constraints.is_empty() {
            return Err(FemError::Unconstrained);
        }
        let ndof = self.mesh.node_count() * 2;
        let mut matrix = BandMatrix::new(ndof, self.dof_bandwidth());
        let mut rhs = self.external_forces()?;
        self.assemble_into(|i, j, v| {
            if j >= i {
                matrix.add(i, j, v);
            }
        })?;
        self.apply_constraints_banded(&mut matrix, &mut rhs);
        Ok((matrix, rhs))
    }

    fn assemble_dense(&self) -> Result<(DenseMatrix, Vec<f64>), FemError> {
        if self.mesh.element_count() == 0 {
            return Err(FemError::EmptyModel);
        }
        if self.constraints.is_empty() {
            return Err(FemError::Unconstrained);
        }
        let ndof = self.mesh.node_count() * 2;
        let mut matrix = DenseMatrix::zeros(ndof, ndof);
        let mut rhs = self.external_forces()?;
        self.assemble_into(|i, j, v| {
            matrix[(i, j)] += v;
        })?;
        // Constraints by row/column elimination, mirroring the banded path.
        for (&dof, &value) in &self.constraints {
            for other in 0..ndof {
                if other == dof {
                    continue;
                }
                let coupling = matrix[(other, dof)];
                if coupling != 0.0 {
                    rhs[other] -= coupling * value;
                    matrix[(other, dof)] = 0.0;
                    matrix[(dof, other)] = 0.0;
                }
            }
            matrix[(dof, dof)] = 1.0;
            rhs[dof] = value;
        }
        Ok((matrix, rhs))
    }

    /// Recovers the reaction forces of a solution: `r = K·u − f_ext`
    /// with the *unconstrained* stiffness, so `r` is (numerically) zero
    /// at free dofs and equals the support reaction at constrained ones.
    ///
    /// # Errors
    ///
    /// Assembly errors as in [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics when the solution does not match this model's dof count.
    pub fn reactions(&self, solution: &Solution) -> Result<Vec<f64>, FemError> {
        let ndof = self.mesh.node_count() * 2;
        assert_eq!(solution.dofs().len(), ndof, "solution/model size mismatch");
        let mut stiffness = BandMatrix::new(ndof, self.dof_bandwidth());
        self.assemble_into(|i, j, v| {
            if j >= i {
                stiffness.add(i, j, v);
            }
        })?;
        let ku = stiffness.mul_vec(solution.dofs());
        let f = self.external_forces()?;
        Ok(ku.iter().zip(&f).map(|(a, b)| a - b).collect())
    }

    /// The constrained degrees of freedom and their prescribed values,
    /// in ascending dof order. Dof `2·n` is the x/r displacement of node
    /// `n`, dof `2·n + 1` the y/z one — the numbering
    /// [`reactions`](Self::reactions) and audit checks share.
    pub fn constrained_dofs(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.constraints.iter().map(|(&dof, &value)| (dof, value))
    }

    /// The assembled external force vector before constraints are
    /// applied: concentrated and pressure loads plus the equivalent
    /// forces of any thermal load — the `f` of `r = K·u − f` in
    /// [`reactions`](Self::reactions).
    ///
    /// # Errors
    ///
    /// Material errors from the constitutive matrices when a thermal
    /// load's equivalent forces are integrated.
    pub fn applied_forces(&self) -> Result<Vec<f64>, FemError> {
        self.external_forces()
    }

    /// The assembled right-hand side before constraints: concentrated /
    /// pressure loads plus the equivalent forces of any thermal load.
    fn external_forces(&self) -> Result<Vec<f64>, FemError> {
        let mut rhs = self.forces.clone();
        if let Some(thermal) = &self.thermal {
            for (id, el) in self.mesh.elements() {
                let material = self.element_material(id);
                let d = self.d_matrix(&material)?;
                let matrices = element_stiffness(&self.mesh.triangle(id), &d, self.kind)
                    .map_err(|e| e.for_element(id.index()))?;
                let local = thermal.element_forces(
                    [
                        el.nodes[0].index(),
                        el.nodes[1].index(),
                        el.nodes[2].index(),
                    ],
                    self.kind,
                    &material,
                    &matrices.b,
                    &d,
                    matrices.volume,
                );
                for (slot, node) in el.nodes.iter().enumerate() {
                    rhs[2 * node.index()] += local[2 * slot];
                    rhs[2 * node.index() + 1] += local[2 * slot + 1];
                }
            }
        }
        Ok(rhs)
    }

    /// Runs the element loop, reporting every global `(i, j, k_ij)` triple
    /// (both orderings) to `sink`.
    ///
    /// Every element stiffness matrix is computed first, then scattered
    /// to `sink` in element order, so the two phases time separately and
    /// the floating-point accumulation order is fixed.
    fn assemble_into<F: FnMut(usize, usize, f64)>(&self, mut sink: F) -> Result<(), FemError> {
        let elements: Vec<(ElementId, [usize; 6])> = self
            .mesh
            .elements()
            .map(|(id, el)| {
                let mut dofs = [0usize; 6];
                for (slot, n) in el.nodes.iter().enumerate() {
                    dofs[2 * slot] = 2 * n.index();
                    dofs[2 * slot + 1] = 2 * n.index() + 1;
                }
                (id, dofs)
            })
            .collect();
        let _span = cafemio_instrument::span("fem.element_stiffness");
        let computed: Vec<_> = elements
            .iter()
            .map(|&(id, _)| {
                let material = self.element_material(id);
                let d = self.d_matrix(&material)?;
                element_stiffness(&self.mesh.triangle(id), &d, self.kind)
            })
            .collect();
        drop(_span);
        let _span = cafemio_instrument::span("fem.scatter");
        for ((id, dofs), matrices) in elements.iter().zip(computed) {
            let matrices = matrices.map_err(|e| e.for_element(id.index()))?;
            for p in 0..6 {
                for q in 0..6 {
                    let v = matrices.stiffness[(p, q)];
                    if v != 0.0 {
                        sink(dofs[p], dofs[q], v);
                    }
                }
            }
        }
        Ok(())
    }

    fn apply_constraints_banded(&self, matrix: &mut BandMatrix, rhs: &mut [f64]) {
        for (&dof, &value) in &self.constraints {
            let column = matrix.constrain(dof);
            for (other, coupling) in column {
                // Skip already-constrained rows; their rhs is fixed below.
                if !self.constraints.contains_key(&other) {
                    rhs[other] -= coupling * value;
                }
            }
        }
        for (&dof, &value) in &self.constraints {
            rhs[dof] = value;
        }
    }
}

/// Displacement solution of a [`FemModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) kind: AnalysisKind,
    pub(crate) displacements: Vec<f64>,
}

impl Solution {
    /// The `(x, y)` (or `(r, z)`) displacement of a node.
    ///
    /// # Panics
    ///
    /// Panics when the node does not exist in the solved model.
    pub fn displacement(&self, node: NodeId) -> (f64, f64) {
        (
            self.displacements[2 * node.index()],
            self.displacements[2 * node.index() + 1],
        )
    }

    /// The raw degree-of-freedom vector.
    pub fn dofs(&self) -> &[f64] {
        &self.displacements
    }

    /// Largest displacement magnitude over all nodes.
    pub fn max_displacement(&self) -> f64 {
        self.displacements
            .chunks(2)
            .map(|uv| (uv[0] * uv[0] + uv[1] * uv[1]).sqrt())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cafemio_geom::Point;
    use cafemio_mesh::BoundaryKind;

    /// Rectangular strip of 2×n squares, each split into two CSTs.
    pub(crate) fn strip_mesh(nx: usize, ny: usize, w: f64, h: f64) -> TriMesh {
        let mut m = TriMesh::new();
        let mut ids = Vec::new();
        for j in 0..=ny {
            for i in 0..=nx {
                let kind = if i == 0 || j == 0 || i == nx || j == ny {
                    BoundaryKind::Boundary
                } else {
                    BoundaryKind::Interior
                };
                ids.push(m.add_node(
                    Point::new(w * i as f64 / nx as f64, h * j as f64 / ny as f64),
                    kind,
                ));
            }
        }
        let at = |i: usize, j: usize| ids[j * (nx + 1) + i];
        for j in 0..ny {
            for i in 0..nx {
                m.add_element([at(i, j), at(i + 1, j), at(i + 1, j + 1)]).unwrap();
                m.add_element([at(i, j), at(i + 1, j + 1), at(i, j + 1)]).unwrap();
            }
        }
        m
    }

    /// Uniaxial tension patch test: a strip pulled with uniform traction
    /// must show the exact linear displacement field.
    #[test]
    fn patch_test_uniaxial_tension() {
        let (e, nu, t) = (1.0e7, 0.3, 0.5);
        let (w, h) = (4.0, 1.0);
        let sigma = 1000.0;
        let nx = 4;
        let ny = 2;
        let mesh = strip_mesh(nx, ny, w, h);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: t },
            Material::isotropic(e, nu),
        );
        // Fix the left edge in x, one node in y.
        for j in 0..=ny {
            let node = NodeId(j * (nx + 1));
            model.fix_x(node);
        }
        model.fix_y(NodeId(0));
        // Uniform traction on the right edge: consistent nodal loads.
        let edge_len = h / ny as f64;
        for j in 0..=ny {
            let node = NodeId(j * (nx + 1) + nx);
            let factor = if j == 0 || j == ny { 0.5 } else { 1.0 };
            model.add_force(node, sigma * edge_len * t * factor, 0.0);
        }
        let solution = model.solve().unwrap();
        // Exact: u = σx/E, v = -νσy/E.
        for (id, node) in model.mesh().nodes() {
            let (u, v) = solution.displacement(id);
            let exact_u = sigma * node.position.x / e;
            let exact_v = -nu * sigma * node.position.y / e;
            assert!((u - exact_u).abs() < 1e-12 * w, "u at {id}");
            assert!((v - exact_v).abs() < 1e-12 * w, "v at {id}");
        }
    }

    #[test]
    fn banded_and_dense_agree() {
        let mesh = strip_mesh(3, 3, 1.0, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(2.0e6, 0.25),
        );
        model.fix_both(NodeId(0));
        model.fix_y(NodeId(3));
        model.add_force(NodeId(15), 10.0, -5.0);
        let banded = model.solve().unwrap();
        let dense = model.solve_dense().unwrap();
        for (b, d) in banded.dofs().iter().zip(dense.dofs()) {
            assert!((b - d).abs() < 1e-9);
        }
    }

    #[test]
    fn skyline_agrees_with_banded() {
        let mesh = strip_mesh(4, 3, 2.0, 1.5);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 0.5 },
            Material::isotropic(5.0e6, 0.28),
        );
        model.fix_both(NodeId(0));
        model.fix_y(NodeId(4));
        model.add_force(NodeId(19), -12.0, 30.0);
        model.prescribe_x(NodeId(9), 0.002);
        let banded = model.solve().unwrap();
        let skyline = model.solve_skyline().unwrap();
        for (b, s) in banded.dofs().iter().zip(skyline.dofs()) {
            assert!((b - s).abs() < 1e-10, "{b} vs {s}");
        }
    }

    #[test]
    fn sparse_cg_agrees_with_banded() {
        let mesh = strip_mesh(5, 4, 2.5, 2.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 0.4 },
            Material::isotropic(3.0e6, 0.3),
        );
        model.fix_both(NodeId(0));
        model.fix_y(NodeId(5));
        model.add_force(NodeId(29), 25.0, -40.0);
        model.prescribe_x(NodeId(12), 0.001);
        let banded = model.solve().unwrap();
        let sparse = model.solve_sparse().unwrap();
        let scale = banded.max_displacement();
        for (b, s) in banded.dofs().iter().zip(sparse.dofs()) {
            assert!((b - s).abs() < 1e-10 * scale, "{b} vs {s}");
        }
    }

    #[test]
    fn solve_with_dispatches_every_backend() {
        let mesh = strip_mesh(3, 2, 1.5, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(2.0e6, 0.25),
        );
        model.fix_both(NodeId(0));
        model.fix_y(NodeId(3));
        model.add_force(NodeId(11), 8.0, 3.0);
        let reference = model.solve_with(SolverBackend::Band).unwrap();
        for backend in SolverBackend::ALL {
            let solution = model.solve_with(backend).unwrap();
            for (a, b) in reference.dofs().iter().zip(solution.dofs()) {
                assert!((a - b).abs() < 1e-9, "{backend}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sparse_rejects_empty_and_unconstrained_models() {
        let model = FemModel::new(
            TriMesh::new(),
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        assert_eq!(model.solve_sparse().unwrap_err(), FemError::EmptyModel);
        let model = FemModel::new(
            strip_mesh(2, 1, 1.0, 1.0),
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        assert_eq!(model.solve_sparse().unwrap_err(), FemError::Unconstrained);
    }

    #[test]
    fn under_constrained_model_fails() {
        let mesh = strip_mesh(2, 1, 1.0, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        // Only one pinned node: rotation remains free.
        model.fix_both(NodeId(0));
        assert!(matches!(
            model.solve(),
            Err(FemError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn fully_unconstrained_model_rejected_before_factorization() {
        // Rigid-body singularity lands on roundoff-sized pivots, so it
        // must be caught structurally, not numerically.
        let mesh = strip_mesh(2, 1, 1.0, 1.0);
        let model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        assert_eq!(model.solve().unwrap_err(), FemError::Unconstrained);
        assert_eq!(model.solve_dense().unwrap_err(), FemError::Unconstrained);
        assert_eq!(model.solve_skyline().unwrap_err(), FemError::Unconstrained);
    }

    #[test]
    fn empty_model_rejected() {
        let model = FemModel::new(
            TriMesh::new(),
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        assert_eq!(model.solve().unwrap_err(), FemError::EmptyModel);
    }

    #[test]
    fn prescribed_displacement_reproduced() {
        let mesh = strip_mesh(2, 2, 1.0, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        for j in 0..=2 {
            model.fix_both(NodeId(j * 3));
            model.prescribe_x(NodeId(j * 3 + 2), 0.01);
            model.fix_y(NodeId(j * 3 + 2));
        }
        let solution = model.solve().unwrap();
        assert!((solution.displacement(NodeId(2)).0 - 0.01).abs() < 1e-12);
        // Mid-column stretches about half as much.
        assert!((solution.displacement(NodeId(4)).0 - 0.005).abs() < 1e-3);
    }

    /// Lamé thick-walled cylinder under internal pressure: the canonical
    /// axisymmetric verification (here a plane-strain-like slice modeled
    /// with the axisymmetric ring elements and axial motion suppressed).
    #[test]
    fn axisymmetric_lame_cylinder() {
        let (ri, ro) = (1.0f64, 2.0f64);
        let p = 1000.0;
        let e = 1.0e7;
        let nu = 0.3;
        let nr = 24;
        // One element strip in z of height dz.
        let dz = 0.05;
        let mut mesh = TriMesh::new();
        let mut bottom = Vec::new();
        let mut top = Vec::new();
        for i in 0..=nr {
            let r = ri + (ro - ri) * i as f64 / nr as f64;
            bottom.push(mesh.add_node(Point::new(r, 0.0), BoundaryKind::Boundary));
            top.push(mesh.add_node(Point::new(r, dz), BoundaryKind::Boundary));
        }
        for i in 0..nr {
            mesh.add_element([bottom[i], bottom[i + 1], top[i + 1]]).unwrap();
            mesh.add_element([bottom[i], top[i + 1], top[i]]).unwrap();
        }
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::Axisymmetric,
            Material::isotropic(e, nu),
        );
        // Plane-strain slice: all axial displacements fixed.
        for i in 0..=nr {
            model.fix_y(bottom[i]);
            model.fix_y(top[i]);
        }
        // Internal pressure on the inner face (walk downward so the left
        // normal points in +r, into the material).
        model.add_edge_pressure(top[0], bottom[0], p).unwrap();
        let solution = model.solve().unwrap();
        // Lamé radial displacement for plane strain:
        // u(r) = (p ri²)/(E(ro²-ri²)) (1+ν) [ (1-2ν) r + ro²/r ].
        let c = p * ri * ri / (e * (ro * ro - ri * ri)) * (1.0 + nu);
        for i in 0..=nr {
            let r = ri + (ro - ri) * i as f64 / nr as f64;
            let exact = c * ((1.0 - 2.0 * nu) * r + ro * ro / r);
            let (u, _) = solution.displacement(bottom[i]);
            let err = (u - exact).abs() / exact.abs();
            assert!(err < 0.02, "r = {r}: u = {u}, exact = {exact}");
        }
    }

    #[test]
    fn edge_pressure_direction_convention() {
        // Square, pressure on the left edge walking b→a so the left
        // normal points +x (into the material): the square must move +x.
        let mesh = strip_mesh(1, 1, 1.0, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        model.fix_both(NodeId(1));
        model.fix_both(NodeId(3));
        model.add_edge_pressure(NodeId(2), NodeId(0), 100.0).unwrap();
        let solution = model.solve().unwrap();
        assert!(solution.displacement(NodeId(0)).0 > 0.0);
    }

    #[test]
    fn free_thermal_expansion_is_stress_free() {
        // Heat a plate uniformly with only rigid-body constraints: it
        // expands by alpha*dT in both directions and carries no stress.
        let (alpha, dt) = (1.2e-5, 100.0);
        let mesh = strip_mesh(3, 2, 3.0, 2.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(1.0e7, 0.3),
        );
        model.fix_both(NodeId(0));
        model.fix_y(NodeId(3)); // block rotation only
        let n = model.mesh().node_count();
        model.set_thermal_load(vec![70.0 + dt; n], alpha, 70.0);
        let solution = model.solve().unwrap();
        let stresses = crate::StressField::compute(&model, &solution).unwrap();
        for (id, node) in model.mesh().nodes() {
            let (u, v) = solution.displacement(id);
            assert!((u - alpha * dt * node.position.x).abs() < 1e-10, "u at {id}");
            assert!((v - alpha * dt * node.position.y).abs() < 1e-10, "v at {id}");
            let s = stresses.node(id);
            assert!(s.radial.abs() < 1e-4, "residual stress {}", s.radial);
            assert!(s.meridional.abs() < 1e-4);
        }
    }

    #[test]
    fn constrained_thermal_expansion_develops_thermal_stress() {
        // A bar held at both ends and heated: sigma_x = -E*alpha*dT
        // (plane stress, y free).
        let (e, alpha, dt) = (1.0e7, 1.0e-5, 50.0);
        let mesh = strip_mesh(6, 1, 6.0, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(e, 0.0), // nu = 0 keeps the 1-D formula exact
        );
        for (id, node) in model.mesh().clone().nodes() {
            if node.position.x.abs() < 1e-9 || (node.position.x - 6.0).abs() < 1e-9 {
                model.fix_x(id);
            }
        }
        model.fix_y(NodeId(0));
        let n = model.mesh().node_count();
        model.set_thermal_load(vec![70.0 + dt; n], alpha, 70.0);
        let solution = model.solve().unwrap();
        let stresses = crate::StressField::compute(&model, &solution).unwrap();
        let expected = -e * alpha * dt;
        for (id, _) in model.mesh().elements() {
            let s = stresses.element(id);
            assert!(
                (s.radial - expected).abs() < 1e-6 * expected.abs(),
                "sigma_x {} vs {expected}",
                s.radial
            );
        }
    }

    #[test]
    fn thermal_gradient_bends_a_cantilever() {
        // Hot top, cold bottom: the free end curls downward... or upward —
        // the hot face elongates, so the beam bends away from it (tip
        // moves toward the cold side).
        let mesh = strip_mesh(10, 2, 10.0, 1.0);
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(1.0e7, 0.3),
        );
        for (id, node) in model.mesh().clone().nodes() {
            if node.position.x.abs() < 1e-9 {
                model.fix_both(id);
            }
        }
        let temps: Vec<f64> = model
            .mesh()
            .nodes()
            .map(|(_, n)| 70.0 + 100.0 * n.position.y)
            .collect();
        model.set_thermal_load(temps, 1.0e-5, 70.0);
        let solution = model.solve().unwrap();
        // Tip node at (10, 0): the cold bottom face at the free end.
        let tip = model
            .mesh()
            .nodes()
            .find(|(_, n)| (n.position.x - 10.0).abs() < 1e-9 && n.position.y.abs() < 1e-9)
            .map(|(id, _)| id)
            .unwrap();
        let (_, v) = solution.displacement(tip);
        assert!(v < -1e-4, "tip deflection {v}");
    }

    #[test]
    fn dof_bandwidth_tracks_mesh_bandwidth() {
        let mesh = strip_mesh(5, 1, 5.0, 1.0);
        let bw = mesh.bandwidth();
        let model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        assert_eq!(model.dof_bandwidth(), 2 * bw + 1);
    }
}
