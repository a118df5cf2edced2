"""HL7v2 <-> FHIR adapter (Section II-B).

"The system can be easily extended to support any other format by writing
adapters that transform data from one exchange format to another, e.g.
from HL7 to FHIR and back."  This adapter handles the pipe-delimited
HL7v2 message shapes the clinical sources in scope emit:

* ``ADT^A01`` admissions -> Patient;
* ``ORU^R01`` lab results -> Patient + Observation;
* ``RDE^O11`` pharmacy orders -> MedicationRequest.

The reverse direction renders FHIR resources back to HL7v2 segments, and
``hl7_to_bundle``/``bundle_to_hl7`` round-trip whole messages.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import ValidationError
from .resources import (
    Bundle,
    Encounter,
    MedicationRequest,
    Observation,
    Patient,
)

FIELD_SEP = "|"
COMPONENT_SEP = "^"
SEGMENT_SEP = "\r"


def _parse_segments(message: str) -> List[List[str]]:
    """Split an HL7v2 message into segments of fields."""
    raw = message.replace("\n", SEGMENT_SEP).strip(SEGMENT_SEP)
    if not raw:
        raise ValidationError("empty HL7 message")
    segments = []
    for line in raw.split(SEGMENT_SEP):
        line = line.strip()
        if line:
            segments.append(line.split(FIELD_SEP))
    if not segments or segments[0][0] != "MSH":
        raise ValidationError("HL7 message must start with MSH segment")
    return segments


def _field(segment: List[str], index: int) -> str:
    """Field accessor tolerant of short segments."""
    return segment[index] if index < len(segment) else ""


def _components(value: str) -> List[str]:
    return value.split(COMPONENT_SEP)


def message_type(message: str) -> str:
    """Return e.g. 'ADT^A01' from the MSH segment."""
    segments = _parse_segments(message)
    return _field(segments[0], 8)


def _pid_to_patient(pid: List[str]) -> Patient:
    """Translate a PID segment to a FHIR Patient."""
    patient_id = _components(_field(pid, 3))[0]
    if not patient_id:
        raise ValidationError("PID segment missing patient id (PID-3)")
    name_parts = _components(_field(pid, 5))
    family = name_parts[0] if name_parts else ""
    given = name_parts[1:2] if len(name_parts) > 1 else []
    birth = _field(pid, 7)
    birth_date = (f"{birth[:4]}-{birth[4:6]}-{birth[6:8]}"
                  if len(birth) >= 8 else None)
    gender_code = _field(pid, 8).upper()
    gender = {"M": "male", "F": "female", "O": "other"}.get(gender_code,
                                                            "unknown")
    address_parts = _components(_field(pid, 11))
    address: Dict[str, str] = {}
    if address_parts and address_parts[0]:
        address = {
            "line": address_parts[0],
            "city": address_parts[2] if len(address_parts) > 2 else "",
            "state": address_parts[3] if len(address_parts) > 3 else "",
            "postalCode": address_parts[4] if len(address_parts) > 4 else "",
        }
    return Patient(
        id=patient_id,
        name={"family": family, "given": given},
        birthDate=birth_date,
        gender=gender,
        address=address,
    )


def _obx_to_observation(obx: List[str], patient_id: str,
                        timestamp: str, index: int) -> Observation:
    """Translate an OBX result segment to a FHIR Observation."""
    code_parts = _components(_field(obx, 3))
    code = {"text": code_parts[1] if len(code_parts) > 1 else code_parts[0],
            "loinc": code_parts[0]}
    value_raw = _field(obx, 5)
    unit = _components(_field(obx, 6))[0]
    try:
        value: object = float(value_raw)
    except ValueError:
        value = value_raw
    effective = (f"{timestamp[:4]}-{timestamp[4:6]}-{timestamp[6:8]}"
                 if len(timestamp) >= 8 else None)
    value_quantity = ({"value": value, "unit": unit}
                      if isinstance(value, float) else {})
    return Observation(
        id=f"{patient_id}-obx-{index}",
        status="final",
        code=code,
        subject=f"Patient/{patient_id}",
        effectiveDateTime=effective,
        valueQuantity=value_quantity,
    )


def _rxe_to_medication(rxe: List[str], patient_id: str, timestamp: str,
                       index: int) -> MedicationRequest:
    """Translate an RXE pharmacy segment to a FHIR MedicationRequest."""
    med_parts = _components(_field(rxe, 2))
    med_text = med_parts[1] if len(med_parts) > 1 else med_parts[0]
    authored = (f"{timestamp[:4]}-{timestamp[4:6]}-{timestamp[6:8]}"
                if len(timestamp) >= 8 else None)
    return MedicationRequest(
        id=f"{patient_id}-rxe-{index}",
        medication={"text": med_text, "code": med_parts[0]},
        subject=f"Patient/{patient_id}",
        authoredOn=authored,
        dosageText=_field(rxe, 3) or None,
    )


_PV1_CLASS = {"I": "inpatient", "O": "ambulatory", "E": "emergency"}


def _pv1_to_encounter(pv1: List[str], patient_id: str,
                      timestamp: str) -> Encounter:
    """Translate a PV1 visit segment to a FHIR Encounter."""
    class_code = _PV1_CLASS.get(_field(pv1, 2).upper(), "ambulatory")
    location = _components(_field(pv1, 3))[0] or None
    admit = _field(pv1, 44) or timestamp
    start = (f"{admit[:4]}-{admit[4:6]}-{admit[6:8]}"
             if len(admit) >= 8 else None)
    return Encounter(
        id=f"{patient_id}-enc",
        status="finished",
        classCode=class_code,
        subject=f"Patient/{patient_id}",
        periodStart=start,
        location=location,
    )


def hl7_to_bundle(message: str, bundle_id: str) -> Bundle:
    """Convert a supported HL7v2 message into a FHIR Bundle."""
    segments = _parse_segments(message)
    msh = segments[0]
    timestamp = _field(msh, 6)
    bundle = Bundle(id=bundle_id, type="message")
    patient: Optional[Patient] = None
    obx_index = 0
    rxe_index = 0
    for segment in segments[1:]:
        kind = segment[0]
        if kind == "PID":
            patient = _pid_to_patient(segment)
            bundle.add(patient)
        elif kind == "PV1":
            if patient is None:
                raise ValidationError("PV1 before PID in HL7 message")
            bundle.add(_pv1_to_encounter(segment, patient.id, timestamp))
        elif kind == "OBX":
            if patient is None:
                raise ValidationError("OBX before PID in HL7 message")
            obx_index += 1
            bundle.add(_obx_to_observation(segment, patient.id, timestamp,
                                           obx_index))
        elif kind == "RXE":
            if patient is None:
                raise ValidationError("RXE before PID in HL7 message")
            rxe_index += 1
            bundle.add(_rxe_to_medication(segment, patient.id, timestamp,
                                          rxe_index))
        # Other segments (EVN, ORC...) carry no data our model stores.
    if patient is None:
        raise ValidationError("HL7 message contains no PID segment")
    return bundle


def _date_to_hl7(date: Optional[str]) -> str:
    return date.replace("-", "") if date else ""


def bundle_to_hl7(bundle: Bundle, sending_app: str = "REPRO") -> str:
    """Render a bundle back to a minimal ORU^R01-style HL7v2 message."""
    patients = bundle.resources_of(Patient)
    if not patients:
        raise ValidationError("bundle has no Patient to export")
    patient = patients[0]
    segments: List[str] = [
        FIELD_SEP.join(["MSH", "^~\\&", sending_app, "", "", "", "", "",
                        "ORU^R01", bundle.id, "P", "2.5"])
    ]
    gender = {"male": "M", "female": "F", "other": "O"}.get(
        patient.gender or "", "U")
    name = f"{patient.name.get('family', '')}^" \
           f"{(patient.name.get('given') or [''])[0]}"
    segments.append(FIELD_SEP.join(
        ["PID", "1", "", patient.id, "", name, "",
         _date_to_hl7(patient.birthDate), gender]))
    for i, obs in enumerate(bundle.resources_of(Observation), start=1):
        value = obs.valueQuantity.get("value", "")
        unit = obs.valueQuantity.get("unit", "")
        code = f"{obs.code.get('loinc', '')}^{obs.code.get('text', '')}"
        segments.append(FIELD_SEP.join(
            ["OBX", str(i), "NM", code, "", str(value), unit]))
    for i, med in enumerate(bundle.resources_of(MedicationRequest), start=1):
        code = f"{med.medication.get('code', '')}^{med.medication.get('text', '')}"
        segments.append(FIELD_SEP.join(
            ["RXE", str(i), code, med.dosageText or ""]))
    return SEGMENT_SEP.join(segments)
